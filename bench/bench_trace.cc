/**
 * @file
 * CI gate for the tracing + time-series observability layer: emits a
 * helm-bench-trace-v1 JSON document (default BENCH_trace.json) that
 * tools/check_bench.py validates, plus a helm-metrics-v1 side snapshot
 * (BENCH_trace_metrics.json) carrying helm_trace_tap_allocs_per_turn
 * and helm_trace_export_allocs_per_span so tools/check_metrics.py --max
 * can gate them directly.
 *
 * Three sections:
 *   * identity — the same serve stream run twice through a
 *     runtime::Server: once plain, once with the tracer synthesizing
 *     span trees and a ServingMonitor consuming the report (both
 *     recording into a side registry).  The primary registry's report
 *     text and metrics snapshot must be byte-identical — attaching
 *     observers cannot perturb the run;
 *   * overhead — a closed-loop gateway drive with and without live
 *     observability taps (tracer + monitor attached to the gateway).
 *     The min-of-3 host-wall ratio is recorded, not gated: a ratio
 *     of two ~0.1 s walls on a shared runner is too noisy to resolve
 *     a few percent.  CI gates the
 *     taps' cost deterministically instead, as extra operator-new
 *     calls per completed turn (traced drive minus plain drive);
 *   * recorder — the observed drive pushes far more turn traces than
 *     the flight recorder's capacity; the retained set must respect
 *     the memory bound and every retained span tree must pass
 *     validate_trace().
 */
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/helm.h"
#include "runtime/instrument.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/monitor.h"
#include "telemetry/report.h"
#include "tracing/export.h"
#include "tracing/synthesize.h"
#include "tracing/tracer.h"

// ---- allocation counter: pins the taps and the exporter hoisting -----
//
// The chrome-trace and span-tree exporters refill hoisted buffers
// instead of constructing std::string temporaries per span/attr, and
// the gateway's observability taps build nothing for a turn the flight
// recorder will not retain.  This binary counts global operator new
// calls around the trace_json export and around each gateway drive,
// and CI gates allocations per span and per turn
// (helm_trace_export_allocs_per_span, helm_trace_tap_allocs_per_turn
// in the side metrics), so a regression that reintroduces per-call
// temporaries fails loudly.

static std::atomic<std::uint64_t> g_alloc_count{0};

void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace helm;

[[noreturn]] void
die(const char *what, const Status &status)
{
    std::fprintf(stderr, "bench_trace: %s: %s\n", what,
                 status.to_string().c_str());
    std::exit(1);
}

// ---- identity section: serve twice, observers must not perturb -------

runtime::ServingSpec
serve_spec()
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.shape.prompt_tokens = 128;
    spec.shape.output_tokens = 21;
    return spec;
}

/** Drive a finished serve report through a monitor exactly like the
 *  CLI does: completions in completion-time order, port/KV samples
 *  from the step records. */
void
feed_monitor(telemetry::ServingMonitor &monitor,
             const runtime::ServingReport &report,
             const std::vector<runtime::LayerStepRecord> &records,
             double port_rate)
{
    std::vector<const runtime::RequestMetrics *> done;
    done.reserve(report.requests.size());
    for (const runtime::RequestMetrics &metrics : report.requests)
        done.push_back(&metrics);
    std::sort(done.begin(), done.end(),
              [](const runtime::RequestMetrics *a,
                 const runtime::RequestMetrics *b) {
                  const Seconds ta = a->arrival + a->e2e_latency;
                  const Seconds tb = b->arrival + b->e2e_latency;
                  return ta != tb ? ta < tb : a->id < b->id;
              });
    for (const runtime::RequestMetrics *metrics : done)
        monitor.on_completed(metrics->arrival + metrics->e2e_latency,
                             metrics->output_tokens, metrics->ttft);
    // Same per-position handle cache the CLI uses: tier lists repeat
    // in the same order every record, so names resolve once.
    std::vector<std::pair<std::string,
                          telemetry::ServingMonitor::KvTierHandle>>
        tier_handles;
    for (const auto &rec : records) {
        if (port_rate > 0.0 && rec.transfer_time > 0.0) {
            const auto moved = rec.transfer_bytes + rec.kv_read_bytes;
            if (moved > 0)
                monitor.on_port_utilization(
                    rec.transfer_start,
                    static_cast<double>(moved) /
                        (rec.transfer_time * port_rate));
        }
        for (std::size_t i = 0; i < rec.kv_occupancy.size(); ++i) {
            const auto &occupancy = rec.kv_occupancy[i];
            if (i >= tier_handles.size())
                tier_handles.emplace_back(
                    occupancy.tier,
                    monitor.kv_tier_handle(occupancy.tier));
            else if (tier_handles[i].first != occupancy.tier)
                tier_handles[i] = {
                    occupancy.tier,
                    monitor.kv_tier_handle(occupancy.tier)};
            monitor.on_kv_occupancy(
                rec.step_end, tier_handles[i].second,
                static_cast<double>(occupancy.bytes) /
                    (1024.0 * 1024.0));
        }
    }
    monitor.finish(report.makespan);
}

struct ServeRun
{
    std::string report_text;
    std::string metrics_json;
    std::uint64_t completed = 0;
};

ServeRun
run_serve(const std::vector<workload::TimedRequest> &stream,
          bool observed)
{
    auto created =
        runtime::Server::create(serve_spec(), runtime::ServingConfig{});
    if (!created.is_ok())
        die("serve create failed", created.status());
    runtime::Server server = std::move(*created);
    // The observed run additionally collects step records — the same
    // delta --trace-out causes in the CLI.
    server.enable_telemetry(observed);
    const Status submitted = server.submit(stream);
    if (!submitted.is_ok())
        die("submit failed", submitted);
    const auto report = server.serve();
    if (!report.is_ok())
        die("serve failed", report.status());

    telemetry::MetricsRegistry registry;
    runtime::record_serving(registry, server.serving_spec(),
                            server.effective_max_batch(),
                            server.kv_request_slots(), *report, "serve");
    server.attribution().record(registry);

    if (observed) {
        tracing::Tracer tracer;
        tracing::synthesize_serving_traces(tracer, *report,
                                           server.serving_records());
        const Status valid = tracing::validate_all(tracer);
        if (!valid.is_ok())
            die("serve span trees invalid", valid);
        telemetry::ServingMonitor monitor;
        feed_monitor(monitor, *report, server.serving_records(),
                     server.trace_port_rate());
        telemetry::MetricsRegistry side;
        tracer.record(side);
        monitor.record(side);
    }

    ServeRun run;
    std::ostringstream out;
    telemetry::print_run_report(out, registry);
    run.report_text = out.str();
    run.metrics_json = telemetry::json_snapshot(registry);
    run.completed = report->completed;
    return run;
}

// ---- overhead + recorder sections: observed gateway drive ------------

struct GatewayOutcome
{
    double wall = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t allocs = 0; //!< operator new calls during the drive
};

GatewayOutcome
run_gateway(std::uint64_t requests, tracing::Tracer *tracer)
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
            die("gateway backend create failed", created.status());
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

    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    sim::Simulator sim;
    gateway::Gateway gate(sim, config, backends);
    telemetry::ServingMonitor monitor;
    if (tracer != nullptr) {
        gateway::GatewayObservability obs;
        obs.tracer = tracer;
        obs.monitor = &monitor;
        gate.set_observability(obs);
    }
    const auto report = gateway::run_closed_loop(sim, gate, driver);
    if (!report.is_ok())
        die("gateway run failed", report.status());
    if (tracer != nullptr)
        monitor.finish(report->sim_makespan);

    GatewayOutcome outcome;
    outcome.wall = report->wall_seconds;
    outcome.completed = report->completed;
    outcome.allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_trace.json";
    const std::string metrics_path =
        argc > 2 ? argv[2] : "BENCH_trace_metrics.json";
    const std::uint64_t gateway_requests =
        argc > 3 ? std::stoull(argv[3]) : 200000;

    // ---- identity ----------------------------------------------------
    workload::ArrivalSpec arrivals;
    arrivals.rate = 16.0;
    arrivals.duration = 60.0;
    arrivals.prompt_tokens = 128;
    arrivals.output_tokens = 21;
    const auto stream = workload::generate_arrivals(arrivals);
    if (!stream.is_ok())
        die("arrival generation failed", stream.status());

    const ServeRun plain_serve = run_serve(*stream, false);
    const ServeRun observed_serve = run_serve(*stream, true);
    const bool report_identical =
        plain_serve.report_text == observed_serve.report_text;
    const bool metrics_identical =
        plain_serve.metrics_json == observed_serve.metrics_json;
    std::cout << "identity: " << plain_serve.completed
              << " requests served, report "
              << (report_identical ? "identical" : "DIVERGED")
              << ", metrics "
              << (metrics_identical ? "identical" : "DIVERGED")
              << " with observers attached\n";

    // ---- overhead (shared warm-up + min-of-3 harness) ----------------
    // The wall ratio is recorded for the trajectory; the gated number
    // is the taps' allocation count, which the warm pairs reproduce
    // exactly (the drive is deterministic and the warm-up paid every
    // step-cache miss).
    std::uint64_t completed = 0;
    std::uint64_t tap_allocs = 0;
    tracing::Tracer tracer; // survives the loop for the recorder section
    bench::WallSamples plain_samples;
    bench::WallSamples traced_samples;
    for (int i = 0; i <= 3; ++i) {
        const GatewayOutcome base = run_gateway(gateway_requests, nullptr);
        tracer = tracing::Tracer(); // stats cover the last run only
        const GatewayOutcome traced = run_gateway(gateway_requests, &tracer);
        if (i == 0)
            continue; // run 0 is the warm-up
        plain_samples.add(base.wall);
        traced_samples.add(traced.wall);
        completed = traced.completed;
        tap_allocs = traced.allocs > base.allocs
                         ? traced.allocs - base.allocs
                         : 0;
    }
    const double tap_allocs_per_turn =
        completed > 0 ? static_cast<double>(tap_allocs) /
                            static_cast<double>(completed)
                      : 0.0;
    const bench::WallStats plain_stats = plain_samples.stats();
    const bench::WallStats traced_stats = traced_samples.stats();
    const double plain_wall = plain_stats.min_seconds;
    const double traced_wall = traced_stats.min_seconds;
    const double overhead_ratio =
        plain_wall > 0.0
            ? std::max(0.0, traced_wall / plain_wall - 1.0)
            : 0.0;
    std::cout << "overhead: " << completed << " requests, plain "
              << format_seconds(plain_wall) << " vs traced "
              << format_seconds(traced_wall) << " ("
              << format_fixed(100.0 * overhead_ratio, 2) << "%), "
              << tap_allocs << " tap allocations ("
              << format_fixed(tap_allocs_per_turn, 3) << "/turn)\n";

    // ---- recorder bound ----------------------------------------------
    const tracing::FlightRecorder &recorder = tracer.recorder();
    const tracing::FlightRecorderStats &stats = recorder.stats();
    const Status valid = tracing::validate_all(tracer);
    if (!valid.is_ok())
        std::cerr << "bench_trace: retained span tree invalid: "
                  << valid.to_string() << "\n";
    std::cout << "recorder: " << stats.traces_seen << " traces seen, "
              << recorder.retained() << " retained ("
              << recorder.retained_spans() << " spans, bound "
              << recorder.config().max_traces << "x"
              << recorder.config().max_spans_per_trace << "), "
              << (valid.is_ok() ? "all valid" : "INVALID") << "\n";

    // ---- exporter allocation pin -------------------------------------
    // Count global operator new calls across one span-tree export of
    // the retained traces.  The exporters stream through hoisted
    // buffers, so per-span allocations must stay O(1) amortized; CI
    // gates helm_trace_export_allocs_per_span.
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const std::string export_doc = tracing::trace_json(tracer);
    const std::uint64_t export_allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    const double allocs_per_span =
        recorder.retained_spans() > 0
            ? static_cast<double>(export_allocs) /
                  static_cast<double>(recorder.retained_spans())
            : 0.0;
    std::cout << "export: " << export_doc.size() << " bytes, "
              << export_allocs << " allocations for "
              << recorder.retained_spans() << " spans ("
              << format_fixed(allocs_per_span, 2) << "/span)\n";

    // ---- artifacts ---------------------------------------------------
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"helm-bench-trace-v1\",\n"
        << "  \"build_type\": \"" << bench::build_type() << "\",\n"
        << "  \"identity\": {\n    \"requests\": "
        << plain_serve.completed << ",\n    \"report_identical\": "
        << (report_identical ? "true" : "false")
        << ",\n    \"metrics_identical\": "
        << (metrics_identical ? "true" : "false")
        << "\n  },\n  \"overhead\": {\n    \"requests\": " << completed
        << ",\n    ";
    bench::json_number(out, "plain_seconds", plain_wall);
    out << ",\n    ";
    bench::json_number(out, "traced_seconds", traced_wall);
    out << ",\n    ";
    bench::json_wall(out, "plain_wall", plain_stats);
    out << ",\n    ";
    bench::json_wall(out, "traced_wall", traced_stats);
    out << ",\n    ";
    bench::json_number(out, "overhead_ratio", overhead_ratio);
    out << ",\n    \"tap_allocations\": " << tap_allocs << ",\n    ";
    bench::json_number(out, "tap_allocs_per_turn", tap_allocs_per_turn);
    out << ",\n    \"traces_seen\": " << stats.traces_seen
        << "\n  },\n  \"export\": {\n    \"bytes\": "
        << export_doc.size() << ",\n    \"allocations\": "
        << export_allocs << ",\n    \"spans\": "
        << recorder.retained_spans() << ",\n    ";
    bench::json_number(out, "allocs_per_span", allocs_per_span);
    out << "\n  },\n  \"recorder\": {\n    \"requests\": "
        << gateway_requests << ",\n    \"traces_seen\": "
        << stats.traces_seen << ",\n    \"spans_seen\": "
        << stats.spans_seen << ",\n    \"retained\": "
        << recorder.retained() << ",\n    \"retained_spans\": "
        << recorder.retained_spans() << ",\n    \"capacity_traces\": "
        << recorder.config().max_traces
        << ",\n    \"capacity_spans_per_trace\": "
        << recorder.config().max_spans_per_trace
        << ",\n    \"evicted\": " << stats.evicted
        << ",\n    \"validated\": " << (valid.is_ok() ? "true" : "false")
        << "\n  }\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";

    telemetry::MetricsRegistry side;
    tracer.record(side);
    side.gauge("helm_trace_overhead_ratio", {},
               "Host-wall overhead of live gateway observability "
               "(traced/plain - 1, min-of-3; recorded, not gated)")
        .set(overhead_ratio);
    side.gauge("helm_trace_tap_allocs_per_turn", {},
               "Extra global operator new calls per completed turn with "
               "the gateway's tracer + monitor taps attached (traced "
               "drive minus plain drive)")
        .set(tap_allocs_per_turn);
    side.gauge("helm_trace_export_allocs_per_span", {},
               "Global operator new calls per retained span during "
               "trace_json export (pins the hoisted-buffer exporters)")
        .set(allocs_per_span);
    const Status written = telemetry::write_text_file(
        metrics_path, telemetry::json_snapshot(side));
    if (!written.is_ok()) {
        std::cerr << written.to_string() << "\n";
        return 1;
    }
    std::cout << "wrote " << metrics_path << "\n";

    const bool ok = report_identical && metrics_identical &&
                    valid.is_ok() &&
                    recorder.retained() <= recorder.config().max_traces;
    return ok ? 0 : 1;
}
