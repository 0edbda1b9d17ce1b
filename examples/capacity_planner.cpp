/**
 * @file
 * Capacity planner: given a model, a heterogeneous-memory host, an
 * objective, and an optional TBT ceiling, run the QoS auto-tuner
 * (sweep/tuner.h — the paper Sec. VII's "automatic latency/throughput
 * tradeoff") and report the recommended serving plan with its GPU
 * memory budget.
 *
 * Usage:
 *   capacity_planner [model] [memory] [latency|throughput] [tbt_ms]
 *   capacity_planner OPT-175B NVDRAM throughput
 *   capacity_planner OPT-175B NVDRAM throughput 4500
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
    const std::string objective_name =
        argc > 3 ? argv[3] : "throughput";
    const double tbt_ceiling_ms = argc > 4 ? std::atof(argv[4]) : 0.0;

    const auto model_config = model::opt_config_by_name(model_name);
    if (!model_config.is_ok()) {
        std::cerr << model_config.status().to_string() << "\n";
        return 1;
    }

    sweep::TuneRequest request;
    request.model = *model_config;
    if (mem::find_device(memory_name) == nullptr) {
        std::cerr << "unknown memory config: " << memory_name << "\n";
        return 1;
    }
    request.memory = memory_name;
    request.objective = objective_name == "latency"
                            ? sweep::TuneObjective::kLatency
                            : sweep::TuneObjective::kThroughput;
    if (tbt_ceiling_ms > 0.0)
        request.tbt_ceiling = tbt_ceiling_ms * 1e-3;
    request.batch_limit = 256;

    std::cout << "Capacity plan for " << model_name << " on "
              << memory_name << " (objective: "
              << sweep::tune_objective_name(request.objective);
    if (request.tbt_ceiling) {
        std::cout << ", TBT <= " << format_seconds(*request.tbt_ceiling);
    }
    std::cout << ")\n\n";

    const auto tuned = sweep::auto_tune(request);
    if (!tuned.is_ok()) {
        std::cerr << "tuner: " << tuned.status().to_string() << "\n";
        return 1;
    }

    // Top candidates.
    AsciiTable table("Top candidates (best first)");
    table.set_header(
        {"plan", "ttft", "tbt", "tok/s", "meets_qos"});
    table.align_right_from(1);
    const std::size_t show =
        std::min<std::size_t>(tuned->explored.size(), 10);
    for (std::size_t i = 0; i < show; ++i) {
        const auto &c = tuned->explored[i];
        table.add_row({c.describe(), format_seconds(c.metrics.ttft),
                       format_seconds(c.metrics.tbt),
                       format_fixed(c.metrics.throughput, 2),
                       c.meets_qos ? "yes" : "no"});
    }
    table.print(std::cout);
    std::cout << "(" << tuned->explored.size()
              << " candidates explored, " << tuned->infeasible
              << " infeasible)\n\n";

    // The recommendation, with its GPU budget.
    const auto &best = tuned->best;
    std::cout << "Recommended: " << best.describe() << "\n"
              << "  TTFT " << format_seconds(best.metrics.ttft)
              << ", TBT " << format_seconds(best.metrics.tbt) << ", "
              << format_fixed(best.metrics.throughput, 2)
              << " tokens/s\n";

    auto spec = best.spec;
    spec.keep_records = true;
    const auto rerun = runtime::simulate_inference(spec);
    if (rerun.is_ok()) {
        const auto &b = rerun->budget;
        std::cout << "  GPU budget: weights "
                  << format_bytes(b.gpu_weights) << ", KV "
                  << format_bytes(b.kv_cache) << ", hidden "
                  << format_bytes(b.hidden) << ", staging "
                  << format_bytes(b.staging) << ", reserve "
                  << format_bytes(b.base_reserve) << ", free "
                  << format_bytes(b.free_bytes()) << "\n";
        const auto energy = energy::estimate_energy(
            *rerun, request.memory, request.gpu);
        if (energy.is_ok()) {
            std::cout << "  Energy: "
                      << format_fixed(energy->joules_per_token(), 1)
                      << " J/token at "
                      << format_fixed(energy->average_watts(), 0)
                      << " W average\n";
        }
    }
    std::cout << "\n(Implements the paper's Sec. VII future work: "
                 "automatic latency/throughput tradeoffs under QoS "
                 "requirements.)\n";
    return 0;
}
