/**
 * @file
 * Figs. 9 & 10 reproduction: HeLM's weight distribution across host and
 * GPU — per-weight placement of one decoder block (Fig. 9's breakdown,
 * with uncompressed/compressed sizes) and the aggregate MHA/FFN split
 * (Fig. 10).
 *
 * Paper shape to reproduce: GPU holds fc1 plus every bias/LayerNorm
 * tensor; the four MHA projections and fc2 stay on host; overall GPU
 * share ~33% (Sec. V-C).
 */
#include "bench_util.h"

int
main()
{
    using namespace helm;
    using namespace helm::bench;

    banner("Figs. 9-10: HeLM weight distribution",
           "Fig. 9 (per-weight breakdown) and Fig. 10 (MHA/FFN split)");

    const auto config = model::opt_config(model::OptVariant::kOpt175B);
    const auto fp16 = model::build_layers(config, model::DataType::kFp16);
    const auto int4 =
        model::build_layers(config, model::DataType::kInt4Grouped);
    const auto map = placement::place_helm(
        int4, placement::Policy::host_offload());

    // ---- Fig. 9: one decoder block, weight by weight -------------------
    AsciiTable t("Fig. 9: decoder block 0 under HeLM "
                 "(uncompressed/compressed sizes)");
    const std::vector<std::string> header{
        "layer", "weight", "fp16_size", "int4_size", "tier"};
    t.set_header(header);

    csv_begin("fig9");
    CsvWriter csv(std::cout);
    csv.header(header);
    for (std::size_t li : {1u, 2u}) { // block 0: MHA then FFN
        for (std::size_t wi = 0; wi < int4[li].weights.size(); ++wi) {
            const auto &w4 = int4[li].weights[wi];
            const auto &w16 = fp16[li].weights[wi];
            const std::vector<std::string> cells{
                model::layer_type_name(int4[li].type),
                model::weight_role_name(w4.role),
                format_bytes(w16.bytes()),
                format_bytes(w4.bytes()),
                placement::tier_name(map.layers[li].weight_tiers[wi])};
            csv.row(cells);
            t.add_row(cells);
        }
    }
    csv_end();
    t.print(std::cout);

    // ---- Fig. 10: aggregate split --------------------------------------
    std::cout << "\nFig. 10: HeLM distribution (% of layer bytes)\n";
    AsciiTable agg;
    agg.set_header({"layer", "gpu", "cpu", "disk"});
    agg.align_right_from(1);
    csv_begin("fig10");
    CsvWriter csv2(std::cout);
    csv2.header({"layer", "gpu", "cpu", "disk"});
    for (auto type : {model::LayerType::kMha, model::LayerType::kFfn}) {
        const auto split = map.split_for_type(type);
        const std::vector<std::string> cells{
            model::layer_type_name(type), format_fixed(split.gpu, 1),
            format_fixed(split.cpu, 1), format_fixed(split.disk, 1)};
        csv2.row(cells);
        agg.add_row(cells);
    }
    const auto overall = map.achieved();
    csv2.row({"overall", format_fixed(overall.gpu, 1),
              format_fixed(overall.cpu, 1),
              format_fixed(overall.disk, 1)});
    agg.add_row({"overall", format_fixed(overall.gpu, 1),
                 format_fixed(overall.cpu, 1),
                 format_fixed(overall.disk, 1)});
    csv_end();
    agg.print(std::cout);
    std::cout << "\nPaper anchor: overall GPU share ~33% (Sec. V-C); "
                 "fc1 + bias/norm on GPU, projections + fc2 on host.\n";
    return 0;
}
