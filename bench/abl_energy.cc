/**
 * @file
 * Ablation (beyond the paper): system energy per generated token.
 * Quantifies the abstract's closing claim — "careful data placement can
 * effectively enable the substitution of DRAM with high-capacity but
 * slower memory, improving overall system energy efficiency."
 */
#include "bench_util.h"

int
main()
{
    using namespace helm;
    using namespace helm::bench;

    banner("Ablation: energy per token",
           "quantifies the Abstract's energy-efficiency claim");

    AsciiTable t("OPT-175B(c) energy, J/token and breakdown");
    const std::vector<std::string> header{
        "config", "scheme", "batch",      "tok/s",    "J_per_tok",
        "gpu_J",  "mem_J",  "mem_static_W", "avg_W"};
    t.set_header(header);
    t.align_right_from(2);

    csv_begin("abl_energy");
    CsvWriter csv(std::cout);
    csv.header(header);

    struct Case
    {
        mem::ConfigKind memory;
        placement::PlacementKind scheme;
        std::uint64_t batch;
    };
    const std::vector<Case> cases{
        {mem::ConfigKind::kDram, placement::PlacementKind::kBaseline, 1},
        {mem::ConfigKind::kNvdram, placement::PlacementKind::kBaseline, 1},
        {mem::ConfigKind::kNvdram, placement::PlacementKind::kHelm, 1},
        {mem::ConfigKind::kMemoryMode, placement::PlacementKind::kHelm, 1},
        {mem::ConfigKind::kDram, placement::PlacementKind::kHelm, 1},
        {mem::ConfigKind::kDram, placement::PlacementKind::kAllCpu, 44},
        {mem::ConfigKind::kNvdram, placement::PlacementKind::kAllCpu, 44},
    };

    double dram_allcpu_jpt = 0.0, nvdram_allcpu_jpt = 0.0;
    for (const auto &c : cases) {
        auto spec = opt175b_spec(c.memory, c.scheme, c.batch, true);
        const auto result = run_or_die(spec);
        const auto energy = energy::estimate_energy(
            result, c.memory, spec.gpu);
        if (!energy.is_ok()) {
            std::cerr << energy.status().to_string() << "\n";
            return 1;
        }
        const auto host = energy::host_power_model(c.memory);
        const double jpt = energy->joules_per_token();
        if (c.scheme == placement::PlacementKind::kAllCpu) {
            if (c.memory == mem::ConfigKind::kDram)
                dram_allcpu_jpt = jpt;
            else
                nvdram_allcpu_jpt = jpt;
        }
        const std::vector<std::string> cells{
            mem::config_kind_name(c.memory),
            placement::placement_kind_name(c.scheme),
            std::to_string(c.batch),
            format_fixed(result.metrics.throughput, 2),
            format_fixed(jpt, 1),
            format_fixed(energy->gpu_joules, 0),
            format_fixed(energy->host_dynamic_joules +
                             energy->host_static_joules,
                         0),
            format_fixed(host->static_watts, 1),
            format_fixed(energy->average_watts(), 0)};
        csv.row(cells);
        t.add_row(cells);
    }
    csv_end();
    t.print(std::cout);

    std::cout << "\nAll-CPU at b44: NVDRAM "
              << format_fixed(nvdram_allcpu_jpt, 1) << " J/token vs DRAM "
              << format_fixed(dram_allcpu_jpt, 1)
              << " J/token — the 1 TiB Optane system runs within "
              << format_fixed(100.0 * (nvdram_allcpu_jpt /
                                           dram_allcpu_jpt -
                                       1.0),
                              1)
              << " % of the 256 GiB DRAM system's energy while holding "
                 "4x the capacity and idling "
              << format_fixed(
                     energy::DevicePowerModel::ddr4_256g().static_watts -
                         energy::DevicePowerModel::optane_1t()
                             .static_watts,
                     1)
              << " W lower.\n";
    return 0;
}
