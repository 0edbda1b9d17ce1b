/**
 * @file
 * Placement explorer: compare Baseline / HeLM / All-CPU on any model
 * and registered host device, showing per-layer-type weight splits, the
 * decode compute/communication overlap, and the serving metrics — the
 * analysis loop of the paper's Sec. V, as a tool.
 *
 * Usage:
 *   placement_explorer [model] [memory] [batch] [fp16|int4]
 *   placement_explorer OPT-175B NVDRAM 1 int4      (default)
 *   placement_explorer OPT-30B MemoryMode 8 fp16
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
    const std::uint64_t batch =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    const bool compressed =
        argc > 4 ? std::string(argv[4]) == "int4" : true;

    const auto model_config = model::opt_config_by_name(model_name);
    if (!model_config.is_ok()) {
        std::cerr << model_config.status().to_string()
                  << " (try OPT-6.7B, OPT-30B, OPT-175B, ...)\n";
        return 1;
    }
    // Any `helmsim devices` name; an unknown one lists the registry.
    const auto system = mem::make_system(memory_name);
    if (!system.is_ok()) {
        std::cerr << system.status().to_string() << "\n";
        return 1;
    }
    const mem::HostSpec memory(system->label());

    std::cout << "Comparing placement schemes: " << model_name << " on "
              << memory_name << ", batch " << batch << ", "
              << (compressed ? "int4" : "fp16") << " weights\n\n";

    AsciiTable table;
    table.set_header({"scheme", "gpu%", "cpu%", "disk%", "mha_gpu%",
                      "ffn_gpu%", "ttft", "tbt", "tok/s", "spilled"});
    table.align_right_from(1);

    for (auto kind : {placement::PlacementKind::kBaseline,
                      placement::PlacementKind::kHelm,
                      placement::PlacementKind::kBalanced,
                      placement::PlacementKind::kAllCpu}) {
        runtime::ServingSpec spec;
        spec.model = *model_config;
        spec.memory = memory;
        spec.placement = kind;
        spec.compress_weights = compressed;
        spec.batch = batch;
        spec.repeats = 2;
        const auto result = runtime::simulate_inference(spec);
        if (!result.is_ok()) {
            table.add_row({placement::placement_kind_name(kind), "-", "-",
                           "-", "-", "-", "-", "-", "-",
                           result.status().to_string()});
            continue;
        }
        const auto split = result->placement.achieved();
        const auto mha =
            result->placement.split_for_type(model::LayerType::kMha);
        const auto ffn =
            result->placement.split_for_type(model::LayerType::kFfn);
        table.add_row(
            {placement::placement_kind_name(kind),
             format_fixed(split.gpu, 1), format_fixed(split.cpu, 1),
             format_fixed(split.disk, 1), format_fixed(mha.gpu, 1),
             format_fixed(ffn.gpu, 1),
             format_seconds(result->metrics.ttft),
             format_seconds(result->metrics.tbt),
             format_fixed(result->metrics.throughput, 2),
             result->spill.spilled() ? format_bytes(
                                           result->spill.spilled_bytes)
                                     : "-"});
    }
    table.print(std::cout);

    // Decode overlap detail for the scheme comparison (Fig. 11a style).
    std::cout << "\nDecode-stage overlap (avg per layer):\n";
    AsciiTable overlap;
    overlap.set_header({"scheme", "mha_compute", "ffn_load",
                        "ffn_compute", "mha_load", "balance"});
    overlap.align_right_from(1);
    for (auto kind : {placement::PlacementKind::kBaseline,
                      placement::PlacementKind::kHelm,
                      placement::PlacementKind::kBalanced,
                      placement::PlacementKind::kAllCpu}) {
        runtime::ServingSpec spec;
        spec.model = *model_config;
        spec.memory = memory;
        spec.placement = kind;
        spec.compress_weights = compressed;
        spec.batch = batch;
        spec.repeats = 2;
        const auto result = runtime::simulate_inference(spec);
        if (!result.is_ok())
            continue;
        const auto s = runtime::summarize_overlap(result->records,
                                                  gpu::Stage::kDecode, 1);
        // "balance" = how close the two pipeline legs are to each other.
        const double legs[2] = {
            std::max(s.avg_mha_compute, s.avg_ffn_transfer),
            std::max(s.avg_ffn_compute, s.avg_mha_transfer)};
        const double busy = s.avg_compute * 2.0;
        const double balance = busy / (legs[0] + legs[1]);
        overlap.add_row({placement::placement_kind_name(kind),
                         format_seconds(s.avg_mha_compute),
                         format_seconds(s.avg_ffn_transfer),
                         format_seconds(s.avg_ffn_compute),
                         format_seconds(s.avg_mha_transfer),
                         format_fixed(balance, 2)});
    }
    overlap.print(std::cout);
    std::cout << "\nbalance = compute time / pipeline time; 1.0 means "
                 "transfers fully hidden (Sec. V-B's goal).\n";
    return 0;
}
