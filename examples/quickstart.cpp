/**
 * @file
 * Quickstart: serve a Poisson request stream against OPT-30B running
 * out-of-core on an Optane-as-memory (NVDRAM) host, through the
 * request-level `runtime::Server` API, and print the per-request SLO
 * metrics (p50/p99 TTFT, queueing delay, goodput).
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */
#include <iostream>

#include "core/helm.h"

int
main()
{
    using namespace helm;

    std::cout << "helm-sim " << version() << "\n"
              << paper_citation() << "\n\n";

    // 1. Describe the serving configuration: a model from the OPT zoo,
    //    a host memory configuration (Table II), a placement scheme.
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt30B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kBaseline;

    // 2. Scheduler and SLO: form FCFS batches of up to 8 requests,
    //    waiting at most 2 s for batch-mates; a request counts toward
    //    goodput if its first token lands within 60 s.
    runtime::ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = 8;
    config.max_queue_delay = 2.0;
    config.enforce_ttft = true;
    config.ttft_target = 60.0;

    // 3. Build the server (validates the whole spec up front) and
    //    submit a Poisson arrival stream: 1 request/s for a minute of
    //    the paper's 128-in / 21-out requests.
    auto server = runtime::Server::create(spec, config);
    if (!server.is_ok()) {
        std::cerr << "invalid spec: " << server.status().to_string()
                  << "\n";
        return 1;
    }
    workload::ArrivalSpec arrivals;
    arrivals.rate = 1.0;
    arrivals.duration = 60.0;
    server->submit(*workload::generate_arrivals(arrivals));

    // 4. Serve the stream to completion.
    const auto report = server->serve();
    if (!report.is_ok()) {
        std::cerr << "serving failed: " << report.status().to_string()
                  << "\n";
        return 1;
    }

    // 5. Read the per-request metrics.
    std::cout << "model:         " << spec.model.name << " ("
              << spec.model.num_layers() << " layers)\n";
    std::cout << "memory:        " << spec.memory.name()
              << ", placement: "
              << placement::placement_kind_name(spec.placement) << "\n";
    std::cout << "requests:      " << report->completed << " served in "
              << report->batches_formed << " batches (mean size "
              << format_fixed(report->mean_batch_size, 2) << ")\n";
    std::cout << "TTFT:          p50 "
              << format_seconds(report->ttft_percentile(50.0)) << ", p99 "
              << format_seconds(report->ttft_percentile(99.0)) << "\n";
    std::cout << "queueing:      p50 "
              << format_seconds(report->queueing_delay_percentile(50.0))
              << ", p99 "
              << format_seconds(report->queueing_delay_percentile(99.0))
              << "\n";
    std::cout << "throughput:    " << format_fixed(report->throughput, 2)
              << " tokens/s over " << format_seconds(report->makespan)
              << "\n";
    std::cout << "goodput:       " << format_fixed(report->goodput, 2)
              << " tokens/s under the "
              << format_seconds(config.ttft_target) << " TTFT SLO ("
              << format_fixed(100.0 * report->slo_attainment, 1)
              << " % met)\n";
    return 0;
}
