/**
 * @file
 * Fig. 7 reproduction: (a) per-layer weight-load latency for the first
 * 70 of OPT-175B's 194 layers under all memory configurations with
 * compression — the sawtooth; (b, c) the baseline allocator's MHA/FFN
 * weight distribution under SSD/FSDAX and NVDRAM/MemoryMode policies;
 * plus the Sec. V-A requested-vs-achieved distribution check.
 *
 * Paper shape to reproduce:
 *  - Sawtooth: MHA dips, FFN ridges, all the way down the stack.
 *  - (65,15,20) achieves (58.6, 33.1, 8.3); (0,80,20) achieves
 *    (0, 91.7, 8.3).
 *  - FFN gets no GPU allocation; MHA does.
 */
#include <map>

#include "bench_util.h"

int
main()
{
    using namespace helm;
    using namespace helm::bench;

    banner("Fig. 7: baseline weight placement artifacts",
           "Figs. 7a-7c + Sec. V-A achieved distributions");

    const std::vector<mem::ConfigKind> configs{
        mem::ConfigKind::kSsd, mem::ConfigKind::kFsdax,
        mem::ConfigKind::kNvdram, mem::ConfigKind::kMemoryMode};

    // ---- Fig. 7a: per-layer load latency, layers 1..70 ----------------
    {
        AsciiTable t("Fig. 7a: per-layer weight load latency (ms), "
                     "layers 1-70 of 194, compressed");
        std::vector<std::string> header{"layer", "type"};
        for (auto memory : configs)
            header.push_back(mem::config_kind_name(memory));
        t.set_header(header);
        t.align_right_from(2);

        csv_begin("fig7a");
        CsvWriter csv(std::cout);
        csv.header(header);

        std::map<std::string, std::vector<double>> series;
        std::vector<std::string> types;
        for (auto memory : configs) {
            auto spec = opt175b_spec(
                memory, placement::PlacementKind::kBaseline, 1, true);
            const auto result = run_or_die(spec);
            std::vector<double> latencies(70, 0.0);
            types.assign(70, "");
            for (const auto &rec : result.records) {
                if (rec.batch_index != 1 || rec.token != 1)
                    continue; // one steady-state decode pass
                if (rec.layer < 1 || rec.layer > 70)
                    continue;
                latencies[static_cast<std::size_t>(rec.layer - 1)] =
                    rec.transfer_time * 1e3;
                types[static_cast<std::size_t>(rec.layer - 1)] =
                    model::layer_type_name(rec.type);
            }
            series[mem::config_kind_name(memory)] = latencies;
        }
        for (int layer = 1; layer <= 70; ++layer) {
            std::vector<std::string> row{
                std::to_string(layer),
                types[static_cast<std::size_t>(layer - 1)]};
            for (auto memory : configs) {
                row.push_back(format_fixed(
                    series[mem::config_kind_name(
                        memory)][static_cast<std::size_t>(layer - 1)],
                    2));
            }
            csv.row(row);
            if (layer <= 12) // keep the human table readable
                t.add_row(row);
        }
        csv_end();
        t.print(std::cout);
        std::cout << "(table truncated at layer 12; full series in the "
                     "CSV block)\n\n";
    }

    // ---- Figs. 7b/7c: MHA/FFN splits + achieved distribution ----------
    const auto layers = model::build_layers(
        model::opt_config(model::OptVariant::kOpt175B),
        model::DataType::kInt4Grouped);
    struct PolicyCase
    {
        const char *label;
        placement::Policy policy;
        const char *paper_achieved;
    };
    const std::vector<PolicyCase> policies{
        {"SSD/FSDAX (65,15,20)", placement::Policy::disk_offload(),
         "(58.6, 33.1, 8.3)"},
        {"NVDRAM/MemoryMode (0,80,20)", placement::Policy::host_offload(),
         "(0, 91.7, 8.3)"},
    };

    AsciiTable t("Figs. 7b/7c: baseline per-layer-type distribution (%)");
    const std::vector<std::string> header{
        "policy", "layer", "gpu", "cpu", "disk"};
    t.set_header(header);
    t.align_right_from(2);
    csv_begin("fig7bc");
    CsvWriter csv(std::cout);
    csv.header(header);
    for (const auto &pc : policies) {
        const auto map = placement::place_baseline(layers, pc.policy);
        for (auto type :
             {model::LayerType::kMha, model::LayerType::kFfn}) {
            const auto split = map.split_for_type(type);
            const std::vector<std::string> cells{
                pc.label, model::layer_type_name(type),
                format_fixed(split.gpu, 1), format_fixed(split.cpu, 1),
                format_fixed(split.disk, 1)};
            csv.row(cells);
            t.add_row(cells);
        }
        const auto achieved = map.achieved();
        std::cout << pc.label << ": achieved (disk, cpu, gpu) = ("
                  << format_fixed(achieved.disk, 1) << ", "
                  << format_fixed(achieved.cpu, 1) << ", "
                  << format_fixed(achieved.gpu, 1) << ")  paper: "
                  << pc.paper_achieved << "\n";
    }
    csv_end();
    std::cout << "\n";
    t.print(std::cout);
    return 0;
}
