/**
 * @file
 * Ablation (implements the paper's future work): the QoS auto-tuner —
 * "weight placement algorithms that can automatically make
 * latency/throughput tradeoffs based on desired quality of service
 * requirements" (Sec. VII).  Sweeps a TBT ceiling and reports the
 * throughput-optimal configuration the tuner finds under each; one
 * evaluated candidate grid serves every ceiling.
 */
#include "bench_util.h"

int
main()
{
    using namespace helm;
    using namespace helm::bench;

    banner("Ablation: QoS auto-tuner (paper Sec. VII future work)",
           "latency/throughput Pareto frontier, OPT-175B(c) NVDRAM");

    sweep::TuneRequest request;
    request.model = model::opt_config(model::OptVariant::kOpt175B);
    request.memory = mem::ConfigKind::kNvdram;
    request.batch_limit = 64;
    request.explore_kv_offload = false;
    request.jobs = 0; // all hardware threads

    // Objective and ceiling change only the reduction, so the grid is
    // simulated once and every search below reduces the same points.
    const auto grid = sweep::tune_grid(request);
    if (!grid.is_ok()) {
        std::cerr << "tuner failed\n";
        return 1;
    }
    const std::vector<sweep::SimPoint> points =
        sweep::evaluate(grid->candidates, request.jobs);
    const auto best_under = [&](sweep::TuneObjective objective,
                                std::optional<Seconds> ceiling) {
        sweep::TuneRequest req = request;
        req.objective = objective;
        req.tbt_ceiling = ceiling;
        return sweep::best_of(req, *grid, points);
    };

    // First the two unconstrained poles.
    const auto latency_pole =
        best_under(sweep::TuneObjective::kLatency, std::nullopt);
    const auto throughput_pole =
        best_under(sweep::TuneObjective::kThroughput, std::nullopt);
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

    // The distinct plans chosen, tightest ceiling first.
    std::vector<sweep::TuneCandidate> walk;
    const Seconds lo = latency_pole->best.metrics.tbt;
    const Seconds hi = throughput_pole->best.metrics.tbt * 1.2;
    for (double frac : {1.02, 1.1, 1.25, 1.5, 2.0, 1e9}) {
        const Seconds ceiling =
            frac > 1e8 ? hi * 10 : lo * frac;
        const auto result =
            best_under(sweep::TuneObjective::kThroughput, ceiling);
        std::vector<std::string> cells;
        cells.push_back(frac > 1e8 ? "none" : ms(ceiling));
        if (result.is_ok()) {
            cells.push_back(result->best.describe());
            cells.push_back(ms(result->best.metrics.tbt));
            cells.push_back(
                format_fixed(result->best.metrics.throughput, 2));
            cells.push_back(std::to_string(result->explored.size()));
            if (walk.empty() ||
                walk.back().describe() != result->best.describe())
                walk.push_back(result->best);
        } else {
            cells.insert(cells.end(), {"infeasible", "-", "-", "0"});
        }
        csv.row(cells);
        t.add_row(cells);
    }
    csv_end();
    t.print(std::cout);
    if (walk.empty())
        return 0;
    std::cout << "\nShape: as the ceiling relaxes, the chosen plan moves ";
    for (std::size_t i = 0; i < walk.size(); ++i)
        std::cout << (i == 0 ? "" : " -> ") << walk[i].describe();
    std::cout << " (" << format_fixed(walk.front().metrics.throughput, 2)
              << " -> " << format_fixed(walk.back().metrics.throughput, 2)
              << " tok/s) — the tuner walks the paper's latency/"
                 "throughput tradeoff automatically.\n";
    return 0;
}
