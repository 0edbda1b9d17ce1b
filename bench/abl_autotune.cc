/**
 * @file
 * Ablation (implements the paper's future work): the QoS auto-tuner —
 * "weight placement algorithms that can automatically make
 * latency/throughput tradeoffs based on desired quality of service
 * requirements" (Sec. VII).  Sweeps a TBT ceiling and reports the
 * throughput-optimal configuration the tuner finds under each.
 */
#include "bench_util.h"

int
main()
{
    using namespace helm;
    using namespace helm::bench;

    banner("Ablation: QoS auto-tuner (paper Sec. VII future work)",
           "latency/throughput Pareto frontier, OPT-175B(c) NVDRAM");

    // First the two unconstrained poles.
    runtime::TuneRequest request;
    request.model = model::opt_config(model::OptVariant::kOpt175B);
    request.memory = mem::ConfigKind::kNvdram;
    request.batch_limit = 64;
    request.explore_micro_batches = true;
    request.explore_kv_offload = false;
    request.jobs = 0; // all hardware threads

    // Every search below enumerates the same candidate grid (objective
    // and ceiling only change the reduction) and simulates it afresh:
    // no search reuses another's runs.
    request.objective = runtime::TuneObjective::kLatency;
    const auto latency_pole = runtime::auto_tune(request);
    request.objective = runtime::TuneObjective::kThroughput;
    const auto throughput_pole = runtime::auto_tune(request);
    if (!latency_pole.is_ok() || !throughput_pole.is_ok()) {
        std::cerr << "tuner failed\n";
        return 1;
    }
    std::cout << "Latency pole:    "
              << latency_pole->best.describe() << " -> TBT "
              << ms(latency_pole->best.metrics.tbt) << " ms\n";
    std::cout << "Throughput pole: "
              << throughput_pole->best.describe() << " -> "
              << format_fixed(throughput_pole->best.metrics.throughput, 2)
              << " tok/s\n\n";

    // Sweep the QoS ceiling between the poles.
    AsciiTable t("Throughput-optimal plan under a TBT ceiling");
    const std::vector<std::string> header{
        "tbt_ceiling_ms", "chosen_plan", "tbt_ms", "tok/s", "explored"};
    t.set_header(header);
    t.align_right_from(2);

    csv_begin("abl_autotune");
    CsvWriter csv(std::cout);
    csv.header(header);

    const Seconds lo = latency_pole->best.metrics.tbt;
    const Seconds hi = throughput_pole->best.metrics.tbt * 1.2;
    for (double frac : {1.02, 1.1, 1.25, 1.5, 2.0, 1e9}) {
        runtime::TuneRequest req = request;
        req.objective = runtime::TuneObjective::kThroughput;
        const Seconds ceiling =
            frac > 1e8 ? hi * 10 : lo * frac;
        req.tbt_ceiling = ceiling;
        const auto result = runtime::auto_tune(req);
        std::vector<std::string> cells;
        cells.push_back(frac > 1e8 ? "none" : ms(ceiling));
        if (result.is_ok()) {
            cells.push_back(result->best.describe());
            cells.push_back(ms(result->best.metrics.tbt));
            cells.push_back(
                format_fixed(result->best.metrics.throughput, 2));
            cells.push_back(std::to_string(result->explored.size()));
        } else {
            cells.insert(cells.end(), {"infeasible", "-", "-", "0"});
        }
        csv.row(cells);
        t.add_row(cells);
    }
    csv_end();
    t.print(std::cout);
    std::cout << "\nShape: tight ceilings force HeLM at small batch; "
                 "relaxed ceilings migrate to All-CPU at the maximum "
                 "batch — the tuner walks the paper's latency/"
                 "throughput tradeoff automatically.\n";
    return 0;
}
