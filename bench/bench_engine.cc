/**
 * @file
 * CI gate for the engine fast path: the StepScheduleCache memoizing
 * simulate_inference.  Emits a helm-bench-engine-v1 JSON document
 * (default BENCH_engine.json) that tools/check_bench.py validates.
 *
 * Two sections, each run cache-off then cache-on with the shared
 * warm-up + min-of-N harness from bench_util.h:
 *
 *   * serve — OPT-175B All-CPU (compressed, batch 44) through
 *     simulate_inference.  Off pays the full placement + schedule
 *     compilation + closed-form executor run every call; on pays one
 *     miss and then replays the memoized run.  Correctness gate: the
 *     serialized run metrics are byte-identical.  serve.speedup is
 *     the cache's own claim;
 *   * gateway — a 200k-turn closed-loop client drive (512 clients,
 *     2 replicas).  Both modes run the gateway's one delivery path;
 *     only the engine's shape misses differ.  Wall time is measured
 *     without observers, then one observed run per mode feeds a
 *     tracer + monitor and the gate demands byte-identical driver
 *     reports (every latency sample), metrics snapshots, chrome-trace
 *     JSON, and the same DES event count.  gateway.speedup is
 *     recorded only: it reads about 1.
 *
 * CI gates serve.speedup >= 3 and every identity bit.
 */
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/helm.h"
#include "runtime/step_cache.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/monitor.h"
#include "tracing/export.h"
#include "tracing/tracer.h"

namespace {

using namespace helm;

[[noreturn]] void
die(const char *what, const Status &status)
{
    std::fprintf(stderr, "bench_engine: %s: %s\n", what,
                 status.to_string().c_str());
    std::exit(1);
}

void
append_samples(std::ostringstream &out, const char *key,
               const std::vector<double> &samples)
{
    out << key << ":";
    char buf[40];
    for (double v : samples) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out << buf << ",";
    }
    out << "\n";
}

// ---- serve section: OPT-175B All-CPU through simulate_inference ------

runtime::ServingSpec
serve_spec()
{
    return bench::opt175b_spec(mem::ConfigKind::kNvdram,
                               placement::PlacementKind::kAllCpu, 44,
                               true);
}

/** Everything sim-side a run produces, rendered to comparable bytes. */
std::string
serialize_run(const runtime::RunResult &result)
{
    std::ostringstream out;
    char buf[40];
    auto num = [&](const char *key, double v) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out << key << ":" << buf << "\n";
    };
    num("ttft", result.metrics.ttft);
    num("tbt", result.metrics.tbt);
    num("throughput", result.metrics.throughput);
    num("total_time", result.metrics.total_time);
    out << "total_tokens:" << result.metrics.total_tokens << "\n"
        << "model_bytes:" << result.model_bytes << "\n"
        << "ndp_steps:" << result.ndp_steps << "\n";
    append_samples(out, "per_batch_ttft", result.metrics.per_batch_ttft);
    append_samples(out, "per_batch_tbt", result.metrics.per_batch_tbt);
    return out.str();
}

std::string
run_serve_once()
{
    auto result = runtime::simulate_inference(serve_spec());
    if (!result.is_ok())
        die("serve simulation failed", result.status());
    return serialize_run(*result);
}

// ---- gateway section: 200k-turn closed-loop drive --------------------

struct DriveOutcome
{
    double wall = 0.0;
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
    std::string report_bytes;  //!< sim-side driver report, serialized
    std::string metrics_bytes; //!< monitor+tracer registry snapshot
    std::string trace_bytes;   //!< helm-trace-v1 JSON
};

/** One drive; when @p observed, a tracer + monitor ride along and the
 *  outcome carries the identity artifacts. */
DriveOutcome
run_drive(std::uint64_t requests, bool observed)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    // Admission caps the context-grown prompt at max_context; size the
    // planner for that worst case.
    spec.shape.prompt_tokens = 1024;
    spec.shape.output_tokens = 21;

    runtime::ServingConfig backend_config;
    backend_config.max_queue_delay = 0.0;
    backend_config.max_queue_length = 1u << 20;

    std::vector<runtime::Server> servers;
    servers.reserve(2);
    for (int r = 0; r < 2; ++r) {
        auto created = runtime::Server::create(spec, backend_config);
        if (!created.is_ok())
            die("backend create failed", created.status());
        servers.push_back(std::move(*created));
    }
    std::vector<runtime::ServingBackend *> backends;
    for (auto &server : servers)
        backends.push_back(&server);

    gateway::GatewayConfig config;
    config.admission.max_context = 1024;
    config.router = gateway::RouterPolicy::kLeastLoaded;

    gateway::DriverConfig driver;
    driver.clients = 512;
    driver.target_requests = requests;
    driver.mean_think = 0.05;

    sim::Simulator sim;
    gateway::Gateway gate(sim, config, backends);
    tracing::Tracer tracer;
    telemetry::ServingMonitor monitor;
    if (observed) {
        gateway::GatewayObservability obs;
        obs.tracer = &tracer;
        obs.monitor = &monitor;
        gate.set_observability(obs);
    }
    const auto report = gateway::run_closed_loop(sim, gate, driver);
    if (!report.is_ok())
        die("gateway run failed", report.status());

    DriveOutcome outcome;
    outcome.wall = report->wall_seconds;
    outcome.events = report->events_executed;
    outcome.completed = report->completed;
    if (!observed)
        return outcome;

    monitor.finish(report->sim_makespan);

    // Sim-side driver report only: wall/events-per-second are host
    // facts and legitimately differ between runs.
    std::ostringstream rep;
    rep << "clients:" << report->clients << "\n"
        << "completed:" << report->completed << "\n"
        << "attempts:" << report->attempts << "\n"
        << "retries:" << report->retries << "\n"
        << "parked:" << report->parked_on_budget << "\n";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", report->sim_makespan);
    rep << "sim_makespan:" << buf << "\n";
    append_samples(rep, "ttft", report->ttft);
    append_samples(rep, "tbt", report->tbt);
    append_samples(rep, "e2e", report->e2e);
    append_samples(rep, "queue_wait", report->queue_wait);
    outcome.report_bytes = rep.str();

    telemetry::MetricsRegistry registry;
    monitor.record(registry);
    tracer.record(registry);
    outcome.metrics_bytes = telemetry::json_snapshot(registry);
    outcome.trace_bytes = tracing::trace_json(tracer);
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_engine.json";
    const std::uint64_t gateway_requests =
        argc > 2 ? std::stoull(argv[2]) : 200000;
    const int serve_runs = 3;
    const int drive_runs = 3;

    if (!bench::build_type_optimized())
        std::cerr << "bench_engine: WARNING: built as '"
                  << bench::build_type()
                  << "' — walls are not comparable to CI (see "
                     "CONTRIBUTING.md)\n";

    // ---- serve: cache off vs on --------------------------------------
    runtime::set_step_cache_enabled(false);
    std::string serve_off_bytes;
    const bench::WallStats serve_off = bench::time_min_of(
        1, serve_runs, [&] { serve_off_bytes = run_serve_once(); });

    runtime::set_step_cache_enabled(true);
    runtime::step_cache().clear();
    std::string serve_on_bytes;
    // Warm-up pays the one miss; the timed calls are pure hits — the
    // steady state every sweep/tune iteration sees.
    const bench::WallStats serve_on = bench::time_min_of(
        1, serve_runs, [&] { serve_on_bytes = run_serve_once(); });

    const bool serve_identical = serve_off_bytes == serve_on_bytes;
    const double serve_speedup =
        serve_on.min_seconds > 0.0
            ? serve_off.min_seconds / serve_on.min_seconds
            : 0.0;
    std::cout << "serve: OPT-175B All-CPU b44, off "
              << format_seconds(serve_off.min_seconds) << " vs on "
              << format_seconds(serve_on.min_seconds) << " (x"
              << format_fixed(serve_speedup, 1) << ", metrics "
              << (serve_identical ? "identical" : "DIVERGED") << ")\n";

    // ---- gateway: cache off vs on ------------------------------------
    runtime::set_step_cache_enabled(false);
    std::uint64_t off_events = 0;
    bench::WallSamples off_samples;
    for (int i = 0; i <= drive_runs; ++i) {
        const DriveOutcome run = run_drive(gateway_requests, false);
        off_events = run.events;
        if (i > 0) // run 0 is the warm-up
            off_samples.add(run.wall);
    }
    const DriveOutcome off_observed = run_drive(gateway_requests, true);

    runtime::set_step_cache_enabled(true);
    runtime::step_cache().clear();
    std::uint64_t on_events = 0;
    std::uint64_t completed = 0;
    bench::WallSamples on_samples;
    for (int i = 0; i <= drive_runs; ++i) {
        const DriveOutcome run = run_drive(gateway_requests, false);
        on_events = run.events;
        completed = run.completed;
        if (i > 0)
            on_samples.add(run.wall);
    }
    const DriveOutcome on_observed = run_drive(gateway_requests, true);

    const bench::WallStats gw_off = off_samples.stats();
    const bench::WallStats gw_on = on_samples.stats();
    const double gw_speedup = gw_on.min_seconds > 0.0
                                  ? gw_off.min_seconds / gw_on.min_seconds
                                  : 0.0;
    const bool report_identical =
        off_observed.report_bytes == on_observed.report_bytes;
    const bool metrics_identical =
        off_observed.metrics_bytes == on_observed.metrics_bytes;
    const bool trace_identical =
        off_observed.trace_bytes == on_observed.trace_bytes;
    const bool events_identical = off_events == on_events;
    const bool identical = report_identical && metrics_identical &&
                           trace_identical && events_identical;

    std::cout << "gateway: " << completed << " turns, off "
              << format_seconds(gw_off.min_seconds) << " (" << off_events
              << " events) vs on " << format_seconds(gw_on.min_seconds)
              << " (" << on_events << " events), x"
              << format_fixed(gw_speedup, 2) << "\n"
              << "identity: report "
              << (report_identical ? "identical" : "DIVERGED")
              << ", metrics "
              << (metrics_identical ? "identical" : "DIVERGED")
              << ", trace "
              << (trace_identical ? "identical" : "DIVERGED")
              << ", events "
              << (events_identical ? "identical" : "DIVERGED") << "\n";

    // ---- artifact -----------------------------------------------------
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"helm-bench-engine-v1\",\n"
        << "  \"build_type\": \"" << bench::build_type() << "\",\n"
        << "  \"serve\": {\n    \"model\": \"opt-175b\",\n"
        << "    \"placement\": \"allcpu\",\n    \"batch\": 44,\n    ";
    bench::json_wall(out, "off_wall", serve_off);
    out << ",\n    ";
    bench::json_wall(out, "on_wall", serve_on);
    out << ",\n    ";
    bench::json_number(out, "speedup", serve_speedup);
    out << ",\n    \"identical\": "
        << (serve_identical ? "true" : "false")
        << "\n  },\n  \"gateway\": {\n    \"requests\": "
        << gateway_requests << ",\n    \"completed\": " << completed
        << ",\n    \"off_events\": " << off_events
        << ",\n    \"on_events\": " << on_events << ",\n    ";
    bench::json_wall(out, "off_wall", gw_off);
    out << ",\n    ";
    bench::json_wall(out, "on_wall", gw_on);
    out << ",\n    ";
    bench::json_number(out, "off_events_per_s",
                       gw_off.min_seconds > 0.0
                           ? static_cast<double>(off_events) /
                                 gw_off.min_seconds
                           : 0.0);
    out << ",\n    ";
    bench::json_number(out, "on_events_per_s",
                       gw_on.min_seconds > 0.0
                           ? static_cast<double>(on_events) /
                                 gw_on.min_seconds
                           : 0.0);
    out << ",\n    ";
    bench::json_number(out, "requests_per_s",
                       gw_on.min_seconds > 0.0
                           ? static_cast<double>(completed) /
                                 gw_on.min_seconds
                           : 0.0);
    out << ",\n    ";
    bench::json_number(out, "speedup", gw_speedup);
    out << ",\n    \"report_identical\": "
        << (report_identical ? "true" : "false")
        << ",\n    \"metrics_identical\": "
        << (metrics_identical ? "true" : "false")
        << ",\n    \"trace_identical\": "
        << (trace_identical ? "true" : "false")
        << ",\n    \"events_identical\": "
        << (events_identical ? "true" : "false") << ",\n    \"identical\": "
        << (identical ? "true" : "false") << "\n  }\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";

    return serve_identical && identical ? 0 : 1;
}
