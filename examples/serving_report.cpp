/**
 * @file
 * Serving report: run one configuration end to end and produce the full
 * observability bundle — serving metrics, a request-level SLO section
 * (Poisson arrivals through the runtime::Server scheduler), per-stage
 * overlap, the system energy breakdown, and a Chrome trace
 * (chrome://tracing / Perfetto) of the compute/communication timeline.
 *
 * Usage:
 *   serving_report [model] [memory] [scheme] [batch] [trace.json]
 *   serving_report OPT-175B NVDRAM HeLM 1 /tmp/helm_trace.json
 */
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/helm.h"

int
main(int argc, char **argv)
{
    using namespace helm;

    const std::string model_name = argc > 1 ? argv[1] : "OPT-175B";
    const std::string memory_name = argc > 2 ? argv[2] : "NVDRAM";
    const std::string scheme_name = argc > 3 ? argv[3] : "HeLM";
    const std::uint64_t batch =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
    const std::string trace_path =
        argc > 5 ? argv[5] : "/tmp/helm_trace.json";

    const auto model_config = model::opt_config_by_name(model_name);
    if (!model_config.is_ok()) {
        std::cerr << model_config.status().to_string() << "\n";
        return 1;
    }
    runtime::ServingSpec spec;
    spec.model = *model_config;
    spec.compress_weights = true;
    spec.batch = batch;
    spec.repeats = 2;
    if (mem::find_device(memory_name) == nullptr) {
        std::cerr << "unknown memory config: " << memory_name << "\n";
        return 1;
    }
    spec.memory = memory_name;
    for (auto kind : {placement::PlacementKind::kBaseline,
                      placement::PlacementKind::kHelm,
                      placement::PlacementKind::kAllCpu}) {
        if (scheme_name == placement::placement_kind_name(kind))
            spec.placement = kind;
    }

    const auto result = runtime::simulate_inference(spec);
    if (!result.is_ok()) {
        std::cerr << "simulation failed: " << result.status().to_string()
                  << "\n";
        return 1;
    }

    // ---- Metrics ---------------------------------------------------------
    std::cout << model_name << " on " << memory_name << " with "
              << placement::placement_kind_name(spec.placement)
              << ", batch " << batch << ", int4 weights\n\n";
    AsciiTable metrics("Serving metrics (Sec. III-C)");
    metrics.set_header({"metric", "value"});
    metrics.add_row({"TTFT", format_seconds(result->metrics.ttft)});
    metrics.add_row({"TBT", format_seconds(result->metrics.tbt)});
    metrics.add_row({"throughput",
                     format_fixed(result->metrics.throughput, 3) +
                         " tokens/s"});
    metrics.add_row({"total time",
                     format_seconds(result->metrics.total_time)});
    metrics.print(std::cout);

    // ---- Per-request SLO metrics ------------------------------------------
    // The same configuration behind the request-level Server: a Poisson
    // stream at 0.5 req/s for two minutes, FCFS batching up to `batch`.
    runtime::ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = batch;
    config.max_queue_delay = 2.0;
    config.enforce_ttft = true;
    config.ttft_target = 120.0;
    auto server = runtime::Server::create(spec, config);
    if (server.is_ok()) {
        workload::ArrivalSpec arrivals;
        arrivals.rate = 0.5;
        arrivals.duration = 120.0;
        server->submit(*workload::generate_arrivals(arrivals));
        const auto report = server->serve();
        if (report.is_ok()) {
            std::cout << "\n";
            AsciiTable per_request(
                "Per-request SLO metrics (Poisson 0.5 req/s)");
            per_request.set_header({"metric", "p50", "p90", "p99"});
            per_request.align_right_from(1);
            per_request.add_row(
                {"queueing delay",
                 format_seconds(report->queueing_delay_percentile(50.0)),
                 format_seconds(report->queueing_delay_percentile(90.0)),
                 format_seconds(
                     report->queueing_delay_percentile(99.0))});
            per_request.add_row(
                {"TTFT", format_seconds(report->ttft_percentile(50.0)),
                 format_seconds(report->ttft_percentile(90.0)),
                 format_seconds(report->ttft_percentile(99.0))});
            per_request.add_row(
                {"e2e latency",
                 format_seconds(report->e2e_percentile(50.0)),
                 format_seconds(report->e2e_percentile(90.0)),
                 format_seconds(report->e2e_percentile(99.0))});
            per_request.print(std::cout);
            std::cout << "goodput: " << format_fixed(report->goodput, 2)
                      << " tokens/s under a "
                      << format_seconds(config.ttft_target)
                      << " TTFT SLO ("
                      << format_fixed(100.0 * report->slo_attainment, 1)
                      << " % of " << report->completed
                      << " requests met it)\n";
        }
    }

    // ---- Overlap ----------------------------------------------------------
    std::cout << "\n";
    AsciiTable overlap("Compute/communication overlap (avg per layer)");
    overlap.set_header({"stage", "compute", "transfer", "mha_c/ffn_l",
                        "ffn_c/mha_l"});
    overlap.align_right_from(1);
    for (auto stage : {gpu::Stage::kPrefill, gpu::Stage::kDecode}) {
        const auto s =
            runtime::summarize_overlap(result->records, stage, 1);
        overlap.add_row({gpu::stage_name(stage),
                         format_seconds(s.avg_compute),
                         format_seconds(s.avg_transfer),
                         format_fixed(s.mha_compute_over_ffn_load(), 2),
                         format_fixed(s.ffn_compute_over_mha_load(), 2)});
    }
    overlap.print(std::cout);

    // ---- Energy -----------------------------------------------------------
    const auto energy =
        energy::estimate_energy(*result, spec.memory, spec.gpu);
    if (energy.is_ok()) {
        std::cout << "\n";
        AsciiTable e("Energy breakdown (Abstract's efficiency claim)");
        e.set_header({"component", "joules", "share"});
        e.align_right_from(1);
        const double total = energy->total_joules();
        auto row = [&](const char *name, double joules) {
            e.add_row({name, format_fixed(joules, 1),
                       format_fixed(100.0 * joules / total, 1) + " %"});
        };
        row("GPU", energy->gpu_joules);
        row("host memory (dynamic)", energy->host_dynamic_joules);
        row("host memory (static)", energy->host_static_joules);
        row("PCIe", energy->pcie_joules);
        row("CPU", energy->cpu_joules);
        e.add_row({"total", format_fixed(total, 1), "100 %"});
        e.print(std::cout);
        std::cout << "energy per token: "
                  << format_fixed(energy->joules_per_token(), 1)
                  << " J  (avg power "
                  << format_fixed(energy->average_watts(), 0) << " W)\n";
    }

    // ---- Trace -------------------------------------------------------------
    const Status trace_status =
        runtime::write_chrome_trace(result->records, trace_path);
    if (trace_status.is_ok()) {
        std::cout << "\nChrome trace written to " << trace_path
                  << " — open in chrome://tracing or ui.perfetto.dev\n";
    } else {
        std::cerr << "trace export failed: " << trace_status.to_string()
                  << "\n";
    }
    return 0;
}
