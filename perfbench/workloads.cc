#include "workloads.h"

#include <charconv>
#include <deque>
#include <numeric>
#include <optional>
#include <sstream>

#include "cluster/cluster_server.h"
#include "cluster/instrument.h"
#include "common/summary.h"
#include "exec/parallel.h"
#include "model/opt.h"
#include "model/zoo.h"
#include "runtime/instrument.h"
#include "runtime/schedule.h"
#include "runtime/scheduler.h"
#include "runtime/step_cache.h"
#include "serving_gateway/driver.h"
#include "serving_gateway/gateway.h"
#include "serving_gateway/instrument.h"
#include "sweep/sweep.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/monitor.h"
#include "tracing/export.h"
#include "tracing/tracer.h"
#include "workload/arrival.h"

namespace perfbench {

using namespace helm;

namespace {

/** The Digest's text image of a double, for sweep Row cells. */
std::string
g17(double value)
{
    char buffer[32];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer,
                                         value, std::chars_format::general,
                                         17);
    return std::string(buffer, end);
}

/** Seeds of independent input streams derived from the run seed. */
std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + stream + 1;
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 29;
    return x;
}

/** percentile_nearest_rank() under a span; the timed call the report
 *  phase makes per quantile. */
double
percentile(Iteration &it, const std::vector<double> &samples, double p)
{
    SpanScope span(it.spans(), "common", "percentile_nearest_rank",
                   it.phase_span());
    return percentile_nearest_rank(samples, p);
}

void
check_monotone(Iteration &it, const char *series, double p50, double p90,
               double p99)
{
    it.check(p50 <= p90 && p90 <= p99,
             std::string(series) + " percentiles monotone (p50 " +
                 g17(p50) + ", p90 " + g17(p90) + ", p99 " + g17(p99) +
                 ")");
}

void
step_cache_layers(Iteration &it)
{
    for (const auto &[name, value] : it.outcome().isolation) {
        if (name.rfind("step_cache.", 0) == 0)
            it.layer(name, value);
    }
}

/** Time the exported metrics snapshot and Prometheus text. */
std::size_t
export_metrics(Iteration &it, const telemetry::MetricsRegistry &registry)
{
    SpanScope span(it.spans(), "telemetry", "json_snapshot+prometheus_text",
                   it.phase_span());
    return telemetry::json_snapshot(registry).size() +
           telemetry::prometheus_text(registry).size();
}

// ---------------------------------------------------------------------
// gateway-chat

constexpr std::uint64_t kChatClients = 512;
constexpr std::uint64_t kChatTurns = 1'000'000;
constexpr std::uint64_t kChatTurnsPerSession = 4;
constexpr double kChatThinkS = 0.050;
constexpr std::uint64_t kChatPromptTokens = 128;
constexpr std::uint64_t kChatOutputTokens = 21;
constexpr std::uint64_t kChatMaxContext = 1024;
constexpr std::uint64_t kChatContextBlock = 64;
constexpr std::uint64_t kChatReplicas = 2;

} // namespace

void
gateway_chat(Iteration &it)
{
    Spans &spans = it.spans();
    it.begin();

    runtime::ServingSpec base;
    base.model = model::opt_config(model::OptVariant::kOpt1_3B);
    base.memory = mem::ConfigKind::kNvdram;
    base.placement = placement::PlacementKind::kBaseline;
    // Size the batch ceiling for the worst admissible turn, as
    // `helmsim gateway` does.
    base.shape.prompt_tokens = kChatMaxContext;
    base.shape.output_tokens = kChatOutputTokens;

    runtime::ServingConfig backend_config;
    backend_config.scheduler = runtime::SchedulerKind::kFcfs;
    backend_config.auto_max_batch = true;
    backend_config.max_queue_delay = 0.0;
    backend_config.max_queue_length = 1u << 20;

    std::deque<runtime::Server> servers;
    std::vector<runtime::ServingBackend *> backends;
    for (std::uint64_t r = 0; r < kChatReplicas; ++r) {
        SpanScope span(spans, "runtime", "Server::create", it.phase_span());
        auto created = runtime::Server::create(base, backend_config);
        if (!it.call(created.status(), "Server::create"))
            return;
        servers.push_back(std::move(*created));
        backends.push_back(&servers.back());
    }

    gateway::GatewayConfig gateway_config;
    gateway_config.admission.max_context = kChatMaxContext;
    gateway_config.admission.context_block = kChatContextBlock;
    gateway_config.router = gateway::RouterPolicy::kLeastLoaded;
    gateway_config.per_token_stream = true;
    if (!it.call(gateway_config.validate(), "GatewayConfig::validate"))
        return;

    gateway::DriverConfig driver_config;
    driver_config.clients = kChatClients;
    driver_config.target_requests = kChatTurns;
    driver_config.turns_per_session = kChatTurnsPerSession;
    driver_config.mean_think = kChatThinkS;
    driver_config.prompt_tokens = kChatPromptTokens;
    driver_config.output_tokens = kChatOutputTokens;
    driver_config.seed = derive_seed(it.seed(), 0);
    if (!it.call(driver_config.validate(), "DriverConfig::validate"))
        return;

    sim::Simulator sim;
    std::optional<gateway::Gateway> gate;
    {
        SpanScope span(spans, "serving_gateway", "Gateway::Gateway",
                       it.phase_span());
        gate.emplace(sim, gateway_config, backends);
    }
    tracing::Tracer tracer;
    telemetry::ServingMonitor monitor;
    gate->set_observability({&tracer, &monitor});
    it.setup_done();

    Result<gateway::DriverReport> driven = Status::internal("not run");
    {
        SpanScope span(spans, "serving_gateway", "run_closed_loop",
                       it.phase_span());
        driven = gateway::run_closed_loop(sim, *gate, driver_config);
    }
    if (!it.call(driven.status(), "run_closed_loop"))
        return;
    const gateway::DriverReport &report = *driven;
    it.simulate_done(static_cast<double>(report.completed), "turns");

    const double ttft50 = percentile(it, report.ttft, 50.0);
    const double ttft90 = percentile(it, report.ttft, 90.0);
    const double ttft99 = percentile(it, report.ttft, 99.0);
    const double tbt50 = percentile(it, report.tbt, 50.0);
    const double e2e50 = percentile(it, report.e2e, 50.0);
    const double e2e90 = percentile(it, report.e2e, 90.0);
    const double e2e99 = percentile(it, report.e2e, 99.0);
    const double wait95 = percentile(it, report.queue_wait, 95.0);
    telemetry::MetricsRegistry registry;
    {
        SpanScope span(spans, "serving_gateway", "record_gateway",
                       it.phase_span());
        gateway::record_gateway(registry, *gate, report);
    }
    {
        SpanScope span(spans, "telemetry", "ServingMonitor::record",
                       it.phase_span());
        monitor.finish(report.sim_makespan);
        monitor.record(registry);
    }
    {
        SpanScope span(spans, "tracing", "Tracer::record", it.phase_span());
        tracer.record(registry);
    }
    const std::size_t metrics_bytes = export_metrics(it, registry);
    std::size_t trace_bytes = 0;
    {
        SpanScope span(spans, "tracing", "trace_json", it.phase_span());
        trace_bytes = tracing::trace_json(tracer).size();
    }
    it.report_done();

    // ---- correctness (untimed) ----------------------------------------
    const gateway::GatewayStats &stats = gate->stats();
    const auto &rejects = gate->admission().rejects();
    const std::uint64_t backend_shed = rejects[static_cast<std::size_t>(
        gateway::RejectReason::kBackendShed)];
    const std::uint64_t all_rejects =
        std::accumulate(rejects.begin(), rejects.end(), std::uint64_t{0});
    it.check(report.completed >= kChatTurns &&
                 report.completed == stats.turns_completed,
             "turn target reached and driver/gateway completions agree");
    it.check(stats.turns_accepted == stats.turns_completed + backend_shed,
             "accepted turns == completed + backend-shed");
    it.check(stats.turns_shed == all_rejects,
             "shed turns == admission rejects over all reasons");
    it.check(stats.tokens_delivered ==
                 stats.turns_completed * kChatOutputTokens,
             "every completed turn streamed all its tokens");
    it.check(report.ttft.size() == report.completed &&
                 report.e2e.size() == report.completed,
             "one latency sample per completed turn");
    check_monotone(it, "ttft", ttft50, ttft90, ttft99);
    check_monotone(it, "e2e", e2e50, e2e90, e2e99);
    it.check(tbt50 > 0.0 && wait95 >= 0.0, "tbt and queue wait sane");
    it.check(metrics_bytes > 0 && trace_bytes > 0, "exports non-empty");
    it.call(tracing::validate_all(tracer), "validate_all(trace)");

    Digest digest;
    for (const auto *series :
         {&report.ttft, &report.tbt, &report.e2e, &report.queue_wait}) {
        for (double v : *series)
            digest.add(v);
    }
    digest.add(report.completed).add(report.attempts).add(report.retries);
    digest.add(report.parked_on_budget).add(report.events_executed);
    digest.add(report.sim_makespan);
    for (std::uint64_t v :
         {stats.turns_submitted, stats.turns_accepted, stats.turns_completed,
          stats.turns_shed, stats.tokens_delivered, stats.dispatch_windows,
          stats.backend_batches, stats.peak_accept_depth})
        digest.add(v);
    for (std::uint64_t v : stats.routed_per_replica)
        digest.add(v);
    for (double v : stats.busy_seconds_per_replica)
        digest.add(v);
    for (std::uint64_t v : rejects)
        digest.add(v);
    for (double v :
         {ttft50, ttft90, ttft99, tbt50, e2e50, e2e90, e2e99, wait95})
        digest.add(v);
    it.outcome().digest = digest.hex();

    // ---- per-layer ----------------------------------------------------
    const double run_s =
        it.span_total("serving_gateway", "run_closed_loop");
    it.layer("sim.events", static_cast<double>(report.events_executed));
    if (run_s > 0.0) {
        it.layer("sim.events_per_s",
                 static_cast<double>(report.events_executed) / run_s);
        it.layer("gateway.run_s", run_s);
        it.layer("gateway.us_per_turn",
                 run_s / static_cast<double>(report.completed) * 1e6);
    }
    it.layer("gateway.create_s",
             it.span_total("runtime", "Server::create") +
                 it.span_total("serving_gateway", "Gateway::Gateway"));
    it.layer("gateway.turns_completed",
             static_cast<double>(stats.turns_completed));
    it.layer("gateway.turns_shed", static_cast<double>(stats.turns_shed));
    it.layer("gateway.retries", static_cast<double>(report.retries));
    it.layer("gateway.dispatch_windows",
             static_cast<double>(stats.dispatch_windows));
    it.layer("gateway.tokens_delivered",
             static_cast<double>(stats.tokens_delivered));
    it.layer("gateway.sessions_opened",
             static_cast<double>(gate->sessions().opened_total()));
    step_cache_layers(it);
    it.layer("report.percentile_s",
             it.span_total("common", "percentile_nearest_rank"));
    it.layer("telemetry.export_s",
             it.span_total("telemetry", "json_snapshot+prometheus_text"));
    it.layer("tracing.export_s", it.span_total("tracing", "trace_json"));
    it.layer("tracing.spans",
             static_cast<double>(tracer.recorder().stats().spans_seen));
    it.layer("tracing.dropped_spans",
             static_cast<double>(tracer.recorder().stats().dropped_spans));
}

// ---------------------------------------------------------------------
// explore-cold

namespace {

const std::vector<std::string> kGridModels{"OPT-6.7B", "OPT-13B", "OPT-30B",
                                           "OPT-66B", "OPT-175B"};
const std::vector<mem::ConfigKind> kGridMemories{
    mem::ConfigKind::kDram, mem::ConfigKind::kNvdram,
    mem::ConfigKind::kMemoryMode, mem::ConfigKind::kCxlFpga,
    mem::ConfigKind::kCxlAsic};
const std::vector<placement::PlacementKind> kGridPlacements{
    placement::PlacementKind::kBaseline, placement::PlacementKind::kHelm,
    placement::PlacementKind::kAllCpu};
const std::vector<std::string> kGridBatches{"1", "4", "8", "16", "32", "44"};

/** Cluster leg: OPT-175B int4 All-CPU under a short Poisson stream. */
constexpr double kClusterRate = 0.5;
constexpr double kClusterDurationS = 60.0;

/** The ServingSpec of one grid point, built directly from its row. */
Result<runtime::ServingSpec>
grid_spec(const sweep::Row &point)
{
    runtime::ServingSpec spec;
    auto config = model::find_model(point.at("model"));
    if (!config.is_ok())
        return config.status();
    spec.model = *config;
    for (mem::ConfigKind kind : kGridMemories) {
        if (point.at("memory") == mem::config_kind_name(kind))
            spec.memory = kind;
    }
    for (placement::PlacementKind kind : kGridPlacements) {
        if (point.at("placement") == placement::placement_kind_name(kind))
            spec.placement = kind;
    }
    spec.batch = std::stoull(point.at("batch"));
    spec.compress_weights = point.at("int4") == "1";
    spec.keep_records = false;
    return spec;
}

struct ClusterLeg
{
    cluster::Parallelism parallelism;
    std::uint64_t gpus;
    const char *span_name;
};

const ClusterLeg kClusterLegs[] = {
    {cluster::Parallelism::kPipeline, 2, "ClusterServer::run(pipeline)"},
    {cluster::Parallelism::kPipeline, 4, "ClusterServer::run(pipeline)"},
    {cluster::Parallelism::kTensor, 2, "ClusterServer::run(tensor)"},
    {cluster::Parallelism::kTensor, 4, "ClusterServer::run(tensor)"},
};

void
digest_serving(Digest &digest, const runtime::ServingReport &report)
{
    for (const runtime::RequestMetrics &r : report.requests) {
        digest.add(r.id).add(r.tenant).add(r.prompt_tokens);
        digest.add(r.output_tokens).add(r.batch_index);
        digest.add(r.arrival).add(r.queueing_delay).add(r.ttft);
        digest.add(r.tbt).add(r.e2e_latency).add(r.deadline);
        digest.add(static_cast<std::uint64_t>(r.slo_met));
        digest.add(static_cast<std::uint64_t>(r.deadline_met));
        digest.add(r.preemptions);
    }
    for (std::uint64_t v : report.rejected_ids)
        digest.add(v);
    for (std::uint64_t v :
         {report.submitted, report.completed, report.rejected,
          report.kv_rejected, report.batches_formed, report.max_queue_depth,
          report.total_tokens, report.iterations, report.preemptions,
          report.resumes, report.kv_demoted_bytes, report.kv_promoted_bytes,
          report.deadline_misses, report.starvation_events})
        digest.add(v);
    for (double v : {report.mean_batch_size, report.makespan,
                     report.throughput, report.goodput,
                     report.slo_attainment, report.kv_swap_exposed_seconds,
                     report.jain_fairness})
        digest.add(v);
    for (const runtime::KvSwapEvent &e : report.kv_swap_events) {
        digest.add(e.request_id).add(e.tenant);
        digest.add(static_cast<std::uint64_t>(e.demote)).add(e.bytes);
        digest.add(e.start).add(e.end);
    }
}

} // namespace

void
explore_cold(Iteration &it)
{
    Spans &spans = it.spans();
    it.begin();

    sweep::SweepRunner runner;
    std::vector<std::string> memories, placements;
    for (mem::ConfigKind kind : kGridMemories)
        memories.push_back(mem::config_kind_name(kind));
    for (placement::PlacementKind kind : kGridPlacements)
        placements.push_back(placement::placement_kind_name(kind));
    for (const auto &[name, values] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"model", kGridModels},
             {"memory", memories},
             {"placement", placements},
             {"batch", kGridBatches},
             {"int4", {"0", "1"}}}) {
        if (!it.call(runner.add_dimension(name, values),
                     "SweepRunner::add_dimension"))
            return;
    }

    std::vector<cluster::ClusterServer> clusters;
    std::uint64_t cluster_requests = 0;
    for (std::size_t leg = 0; leg < std::size(kClusterLegs); ++leg) {
        cluster::ClusterSpec spec;
        spec.serving.model = model::opt_config(model::OptVariant::kOpt175B);
        spec.serving.memory = mem::ConfigKind::kNvdram;
        spec.serving.placement = placement::PlacementKind::kAllCpu;
        spec.serving.compress_weights = true;
        spec.gpus = kClusterLegs[leg].gpus;
        spec.parallelism = kClusterLegs[leg].parallelism;
        spec.config = runtime::ServingConfig{};
        Result<cluster::ClusterServer> created = Status::internal("");
        {
            SpanScope span(spans, "cluster", "ClusterServer::create",
                           it.phase_span());
            created = cluster::ClusterServer::create(spec);
        }
        if (!it.call(created.status(), "ClusterServer::create"))
            return;
        workload::ArrivalSpec arrivals;
        arrivals.rate = kClusterRate;
        arrivals.duration = kClusterDurationS;
        arrivals.seed = derive_seed(it.seed(), 10 + leg);
        auto stream = workload::generate_arrivals(arrivals);
        if (!it.call(stream.status(), "generate_arrivals"))
            return;
        cluster_requests += stream->size();
        if (!it.call(created->submit(*stream), "ClusterServer::submit"))
            return;
        clusters.push_back(std::move(*created));
    }
    it.setup_done();

    // The sweep: every point is a cold engine run on the exec/ pool.
    sweep::Dataset dataset;
    std::uint64_t sweep_span = 0;
    {
        SpanScope span(spans, "sweep", "SweepRunner::run", it.phase_span());
        sweep_span = span.id();
        sweep::SweepOptions options;
        options.jobs = it.jobs();
        dataset = runner.run(
            [&spans, sweep_span](
                const sweep::Row &point) -> Result<sweep::Row> {
                auto spec = grid_spec(point);
                if (!spec.is_ok())
                    return spec.status();
                Result<runtime::RunResult> run = Status::internal("");
                {
                    SpanScope call(spans, "runtime", "simulate_inference",
                                   sweep_span);
                    run = runtime::simulate_inference(*spec);
                }
                if (!run.is_ok())
                    return run.status();
                const runtime::InferenceMetrics &m = run->metrics;
                return sweep::Row{
                    {"ttft_s", g17(m.ttft)},
                    {"tbt_s", g17(m.tbt)},
                    {"tokens_per_s", g17(m.throughput)},
                    {"total_s", g17(m.total_time)},
                    {"total_tokens", std::to_string(m.total_tokens)},
                    {"gpu_used_bytes", std::to_string(run->budget.used())},
                    {"model_bytes", std::to_string(run->model_bytes)}};
            },
            options);
    }
    std::vector<cluster::ClusterReport> cluster_reports;
    for (std::size_t leg = 0; leg < clusters.size(); ++leg) {
        Result<cluster::ClusterReport> ran = Status::internal("");
        {
            SpanScope span(spans, "cluster", kClusterLegs[leg].span_name,
                           it.phase_span());
            ran = clusters[leg].run();
        }
        if (!it.call(ran.status(), "ClusterServer::run"))
            return;
        cluster_reports.push_back(std::move(*ran));
    }
    it.simulate_done(static_cast<double>(dataset.size() + clusters.size()),
                     "points");

    std::ostringstream csv;
    {
        SpanScope span(spans, "sweep", "Dataset::write_csv", it.phase_span());
        dataset.write_csv(csv);
    }
    telemetry::MetricsRegistry registry;
    {
        SpanScope span(spans, "cluster", "record_cluster", it.phase_span());
        for (const auto &report : cluster_reports)
            cluster::record_cluster(registry, report);
    }
    const std::size_t metrics_bytes = export_metrics(it, registry);
    it.report_done();

    // ---- correctness (untimed) ----------------------------------------
    // One simulate_inference call per point; a failed one left its
    // Status text in the row's error column.
    for (std::size_t row = 0; row < dataset.size(); ++row) {
        const std::string &error = dataset.cell(row, "error");
        it.call(error.empty() ? Status::ok() : Status::internal(error),
                "simulate_inference");
    }
    it.check(dataset.size() == runner.point_count() &&
                 dataset.size() == 900,
             "grid covers its 900 points");
    std::uint64_t served = 0;
    for (const auto &report : cluster_reports) {
        served += report.serving.submitted;
        it.check(report.serving.submitted ==
                     report.serving.completed + report.serving.rejected,
                 "cluster requests conserved");
        check_monotone(it, "cluster ttft",
                       report.serving.ttft_percentile(50.0),
                       report.serving.ttft_percentile(90.0),
                       report.serving.ttft_percentile(99.0));
    }
    it.check(served == cluster_requests, "cluster legs saw every request");
    it.check(!csv.str().empty() && metrics_bytes > 0, "exports non-empty");

    Digest digest;
    for (const std::string &column : dataset.columns())
        digest.add(column);
    for (std::size_t row = 0; row < dataset.size(); ++row) {
        for (const std::string &column : dataset.columns())
            digest.add(dataset.cell(row, column));
    }
    for (const auto &report : cluster_reports) {
        digest_serving(digest, report.serving);
        for (const cluster::GpuUtilization &g : report.gpus) {
            digest.add(g.gpu).add(g.batches).add(g.requests);
            digest.add(g.compute_busy).add(g.h2d_bytes).add(g.d2h_bytes);
            digest.add(g.utilization);
        }
        for (const cluster::PortStats &p : report.ports)
            digest.add(p.name).add(p.rate.raw()).add(p.bytes);
    }
    it.outcome().digest = digest.hex();

    // ---- per-layer ----------------------------------------------------
    // Only traced iterations report layers: they need the engine spans,
    // and the compile_schedule pass below is extra work.
    if (!spans.enabled())
        return;
    const auto engine_spans =
        spans.find(it.trace(), "runtime", "simulate_inference");
    double busy_s = 0.0;
    for (const Span &span : engine_spans)
        busy_s += span.end - span.start;
    const double sweep_s = it.span_total("sweep", "SweepRunner::run");
    const double runs = static_cast<double>(engine_spans.size());
    it.layer("engine.cold_runs", runs);
    if (runs > 0.0)
        it.layer("engine.cold_ms_per_run", busy_s / runs * 1e3);

    // compile_schedule on the same specs, on the same pool width, after
    // the timed phases: the engine time minus it is the DES execution.
    const std::vector<sweep::Row> points = runner.enumerate_points();
    std::vector<double> compile_s(points.size(), 0.0);
    std::vector<int> compile_ok(points.size(), 0);
    exec::parallel_for(points.size(), it.jobs(), [&](std::size_t i) {
        auto spec = grid_spec(points[i]);
        if (!spec.is_ok())
            return;
        const double start = now_s();
        const auto compiled = runtime::compile_schedule(*spec);
        compile_s[i] = now_s() - start;
        compile_ok[i] = compiled.is_ok() ? 1 : 0;
    });
    const double compile_total =
        std::accumulate(compile_s.begin(), compile_s.end(), 0.0);
    it.check(std::accumulate(compile_ok.begin(), compile_ok.end(), 0) ==
                 static_cast<int>(points.size()),
             "compile_schedule accepts every grid spec");
    const double compile_ms =
        compile_total / static_cast<double>(points.size()) * 1e3;
    it.layer("schedule.compile_ms_per_run", compile_ms);
    if (runs > 0.0)
        it.layer("engine.des_ms_per_run", busy_s / runs * 1e3 - compile_ms);
    it.layer("exec.jobs", static_cast<double>(it.jobs()));
    it.layer("exec.busy_s", busy_s);
    if (sweep_s > 0.0) {
        it.layer("exec.efficiency",
                 busy_s / (static_cast<double>(it.jobs()) * sweep_s));
    }
    it.layer("cluster.pipeline_s",
             it.span_total("cluster", "ClusterServer::run(pipeline)"));
    it.layer("cluster.tensor_s",
             it.span_total("cluster", "ClusterServer::run(tensor)"));
    step_cache_layers(it);
    it.layer("telemetry.export_s",
             it.span_total("telemetry", "json_snapshot+prometheus_text"));
}

// ---------------------------------------------------------------------
// serve-edf

namespace {

/** Each tenant's base arrival rate and the stream horizon.  Bursts of
 *  tenant 1 exceed the server's capacity and drain between bursts. */
constexpr double kEdfRate = 0.08;
constexpr double kEdfDurationS = 200'000.0;
/** Tenant 0: interactive Poisson chat. */
constexpr std::uint64_t kEdfChatPrompt = 64;
constexpr std::uint64_t kEdfChatOutput = 16;
constexpr double kEdfChatDeadlineS = 15.0;
/** Tenant 1: bursty batch jobs with C4-like variable prompts. */
constexpr std::uint64_t kEdfBatchPrompt = 512;
constexpr std::uint64_t kEdfBatchOutput = 64;
constexpr double kEdfBatchDeadlineS = 600.0;
constexpr std::uint64_t kEdfMaxBatch = 8;

} // namespace

void
serve_edf(Iteration &it)
{
    Spans &spans = it.spans();
    it.begin();

    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt6_7B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.shape.output_tokens = kEdfBatchOutput;

    runtime::ServingConfig config;
    config.scheduler = runtime::SchedulerKind::kEdf;
    config.auto_max_batch = false;
    config.max_batch = kEdfMaxBatch;
    config.tenants = 2;

    Result<runtime::Server> created = Status::internal("");
    {
        SpanScope span(spans, "runtime", "Server::create", it.phase_span());
        created = runtime::Server::create(spec, config);
    }
    if (!it.call(created.status(), "Server::create"))
        return;
    runtime::Server &server = *created;

    std::vector<std::vector<workload::TimedRequest>> streams;
    {
        SpanScope span(spans, "workload", "generate_arrivals",
                       it.phase_span());
        workload::ArrivalSpec chat;
        chat.kind = workload::ArrivalKind::kPoisson;
        chat.rate = kEdfRate;
        chat.duration = kEdfDurationS;
        chat.prompt_tokens = kEdfChatPrompt;
        chat.output_tokens = kEdfChatOutput;
        chat.deadline = kEdfChatDeadlineS;
        chat.seed = derive_seed(it.seed(), 20);

        workload::ArrivalSpec batch;
        batch.kind = workload::ArrivalKind::kBursty;
        batch.rate = kEdfRate;
        batch.duration = kEdfDurationS;
        batch.prompt_tokens = kEdfBatchPrompt;
        batch.output_tokens = kEdfBatchOutput;
        batch.variable_lengths = true;
        batch.deadline = kEdfBatchDeadlineS;
        batch.seed = derive_seed(it.seed(), 21);

        for (const workload::ArrivalSpec *arrivals : {&chat, &batch}) {
            auto stream = workload::generate_arrivals(*arrivals);
            if (!it.call(stream.status(), "generate_arrivals"))
                return;
            streams.push_back(std::move(*stream));
        }
        for (workload::TimedRequest &timed : streams[1])
            timed.request.tenant = 1;
    }
    std::vector<workload::TimedRequest> merged;
    {
        SpanScope span(spans, "workload", "merge_arrivals", it.phase_span());
        merged = workload::merge_arrivals(streams);
    }
    {
        SpanScope span(spans, "runtime", "Server::submit", it.phase_span());
        for (const workload::TimedRequest &timed : merged) {
            if (!it.call(server.submit(timed), "Server::submit"))
                return;
        }
    }
    it.setup_done();

    Result<runtime::ServingReport> served = Status::internal("");
    {
        SpanScope span(spans, "runtime", "Server::serve", it.phase_span());
        served = server.serve();
    }
    if (!it.call(served.status(), "Server::serve"))
        return;
    const runtime::ServingReport &report = *served;
    it.simulate_done(static_cast<double>(report.completed), "requests");

    double q[4][3];
    {
        SpanScope span(spans, "common", "percentile_nearest_rank",
                       it.phase_span());
        const double ps[3] = {50.0, 90.0, 99.0};
        for (int i = 0; i < 3; ++i) {
            q[0][i] = report.ttft_percentile(ps[i]);
            q[1][i] = report.tbt_percentile(ps[i]);
            q[2][i] = report.e2e_percentile(ps[i]);
            q[3][i] = report.queueing_delay_percentile(ps[i]);
        }
    }
    telemetry::MetricsRegistry registry;
    {
        SpanScope span(spans, "runtime", "record_serving", it.phase_span());
        runtime::record_serving(registry, server.spec(),
                                server.effective_max_batch(),
                                server.kv_request_slots(), report,
                                "perfbench serve-edf");
    }
    const std::size_t metrics_bytes = export_metrics(it, registry);
    it.report_done();

    // ---- correctness (untimed) ----------------------------------------
    Bytes demoted = 0, promoted = 0;
    for (const runtime::KvSwapEvent &e : report.kv_swap_events)
        (e.demote ? demoted : promoted) += e.bytes;
    it.check(report.submitted == merged.size() &&
                 report.submitted == report.completed + report.rejected &&
                 report.requests.size() == report.completed,
             "requests conserved (submitted == completed + rejected)");
    it.check(report.kv_demoted_bytes == report.kv_promoted_bytes,
             "KV demoted bytes == promoted bytes");
    it.check(demoted == report.kv_demoted_bytes &&
                 promoted == report.kv_promoted_bytes,
             "swap events tile the demoted/promoted byte totals");
    it.check(report.preemptions > 0 &&
                 report.resumes == report.preemptions,
             "EDF preempts and resumes every preempted request");
    check_monotone(it, "ttft", q[0][0], q[0][1], q[0][2]);
    check_monotone(it, "tbt", q[1][0], q[1][1], q[1][2]);
    check_monotone(it, "e2e", q[2][0], q[2][1], q[2][2]);
    check_monotone(it, "queueing", q[3][0], q[3][1], q[3][2]);
    it.check(metrics_bytes > 0, "exports non-empty");

    Digest digest;
    digest_serving(digest, report);
    for (const auto &series : q) {
        for (double v : series)
            digest.add(v);
    }
    it.outcome().digest = digest.hex();

    // ---- per-layer ----------------------------------------------------
    const double serve_s = it.span_total("runtime", "Server::serve");
    it.layer("server.serve_s", serve_s);
    it.layer("server.iterations", static_cast<double>(report.iterations));
    if (report.iterations > 0) {
        it.layer("server.us_per_iteration",
                 serve_s / static_cast<double>(report.iterations) * 1e6);
    }
    it.layer("server.preemptions", static_cast<double>(report.preemptions));
    it.layer("server.resumes", static_cast<double>(report.resumes));
    it.layer("server.completed", static_cast<double>(report.completed));
    it.layer("server.rejected", static_cast<double>(report.rejected));
    it.layer("server.deadline_misses",
             static_cast<double>(report.deadline_misses));
    it.layer("kv.demoted_bytes", static_cast<double>(report.kv_demoted_bytes));
    it.layer("kv.promoted_bytes",
             static_cast<double>(report.kv_promoted_bytes));
    step_cache_layers(it);
    it.layer("report.percentile_s",
             it.span_total("common", "percentile_nearest_rank"));
    it.layer("telemetry.export_s",
             it.span_total("telemetry", "json_snapshot+prometheus_text"));
}

// ---------------------------------------------------------------------
// Iteration

Iteration::Iteration(Spans &spans, std::uint64_t seed, std::uint64_t trace,
                     std::size_t jobs)
    : spans_(spans), seed_(seed), trace_(trace), jobs_(jobs)
{}

void
Iteration::begin()
{
    runtime::StepScheduleCache &cache = runtime::step_cache();
    cache.clear();
    outcome_.isolation.emplace_back("step_cache.entries_at_start",
                                    static_cast<double>(cache.size()));
    cache_hits_ = cache.hits();
    cache_misses_ = cache.misses();
    cache_stream_hits_ = cache.stream_hits();
    reset_peak_rss();
    spans_.set_trace(trace_);
    cpu_begin_ = cpu_s();
    t_begin_ = now_s();
    open_phase("setup");
}

void
Iteration::open_phase(const char *name)
{
    spans_.close(phase_span_);
    phase_span_ = name ? spans_.open("perfbench", name, 0) : 0;
}

void
Iteration::setup_done()
{
    t_setup_ = now_s();
    outcome_.rss_setup_mb = rss_mb();
    open_phase("simulate");
}

void
Iteration::simulate_done(double units, const char *unit)
{
    t_simulate_ = now_s();
    outcome_.units = units;
    outcome_.unit = unit;
    open_phase("report");
}

void
Iteration::report_done()
{
    const double t_end = now_s();
    open_phase(nullptr);
    outcome_.cpu_s = cpu_s() - cpu_begin_;
    outcome_.peak_rss_mb = peak_rss_mb();
    outcome_.setup_s = t_setup_ - t_begin_;
    outcome_.simulate_s = t_simulate_ - t_setup_;
    outcome_.report_s = t_end - t_simulate_;
    outcome_.total_s = t_end - t_begin_;

    const runtime::StepScheduleCache &cache = runtime::step_cache();
    const double hits = static_cast<double>(cache.hits() - cache_hits_);
    const double misses =
        static_cast<double>(cache.misses() - cache_misses_);
    outcome_.isolation.emplace_back("step_cache.hits", hits);
    outcome_.isolation.emplace_back("step_cache.misses", misses);
    outcome_.isolation.emplace_back(
        "step_cache.stream_hits",
        static_cast<double>(cache.stream_hits() - cache_stream_hits_));
    outcome_.isolation.emplace_back("step_cache.lookups", hits + misses);
    outcome_.isolation.emplace_back(
        "step_cache.hit_ratio",
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0);

    layer("report.s", outcome_.report_s);
    layer("mem.rss_setup_mb", outcome_.rss_setup_mb);
    if (outcome_.units > 0.0) {
        layer("mem.bytes_per_unit",
              (outcome_.peak_rss_mb - outcome_.rss_setup_mb) * 1048576.0 /
                  outcome_.units);
    }
}

bool
Iteration::call(const Status &status, const char *what)
{
    ++outcome_.calls;
    if (status.is_ok())
        return true;
    outcome_.failures.push_back(std::string(what) + ": " +
                                status.to_string());
    return false;
}

void
Iteration::check(bool holds, const std::string &what)
{
    ++outcome_.checks;
    if (!holds)
        outcome_.failures.push_back("check failed: " + what);
}

double
Iteration::span_total(const char *layer, const char *name) const
{
    return spans_.total(trace_, layer, name);
}

} // namespace perfbench
