/**
 * @file
 * CXL what-if explorer: sweep a hypothetical CXL expander's bandwidth
 * and find the crossover points the paper's Sec. V-D projections imply —
 * where the expander matches NVDRAM+HeLM latency, and where HeLM's FFN
 * transfer first hides fully behind MHA compute (the property only
 * CXL-ASIC reaches in Table IV).
 *
 * Usage:
 *   cxl_whatif [min_gbps] [max_gbps] [step]
 *   cxl_whatif 2 40 2        (default)
 */
#include <cstdlib>
#include <iostream>

#include "core/helm.h"

int
main(int argc, char **argv)
{
    using namespace helm;

    const double min_gbps = argc > 1 ? std::atof(argv[1]) : 2.0;
    const double max_gbps = argc > 2 ? std::atof(argv[2]) : 40.0;
    const double step = argc > 3 ? std::atof(argv[3]) : 2.0;
    if (min_gbps <= 0 || max_gbps < min_gbps || step <= 0) {
        std::cerr << "usage: cxl_whatif [min_gbps] [max_gbps] [step]\n";
        return 1;
    }

    std::cout << "CXL bandwidth what-if: OPT-175B(c), batch 1, HeLM vs "
                 "baseline (direct CXL.mem projection, Sec. V-D)\n\n";

    auto run = [](placement::PlacementKind scheme, mem::HostSpec host) {
        runtime::ServingSpec spec;
        spec.model = model::opt_config(model::OptVariant::kOpt175B);
        spec.memory = std::move(host);
        spec.placement = scheme;
        spec.compress_weights = true;
        spec.batch = 1;
        spec.repeats = 2;
        auto result = runtime::simulate_inference(spec);
        HELM_ASSERT(result.is_ok(), "what-if simulation failed");
        return std::move(result).value();
    };

    // Reference: NVDRAM + HeLM.
    const auto nv_helm =
        run(placement::PlacementKind::kHelm, mem::ConfigKind::kNvdram);
    std::cout << "NVDRAM + HeLM reference TBT: "
              << format_seconds(nv_helm.metrics.tbt) << "\n\n";

    AsciiTable table("Custom CXL expander sweep");
    table.set_header({"cxl_gbps", "baseline_tbt", "helm_tbt",
                      "helm_gain_%", "helm_vs_nvdram",
                      "helm_prefill_r1"});
    table.align_right_from(0);

    double match_nvdram = -1.0;
    double crossover = -1.0;
    for (double gbps = min_gbps; gbps <= max_gbps + 1e-9; gbps += step) {
        const auto bw =
            mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(gbps));
        const auto base = run(placement::PlacementKind::kBaseline, bw);
        const auto helm_run = run(placement::PlacementKind::kHelm, bw);
        const auto prefill = runtime::summarize_overlap(
            helm_run.records, gpu::Stage::kPrefill, 1);
        const double r1 = prefill.mha_compute_over_ffn_load();
        const double gain =
            100.0 * (1.0 - helm_run.metrics.tbt / base.metrics.tbt);
        table.add_row(
            {format_fixed(gbps, 0), format_seconds(base.metrics.tbt),
             format_seconds(helm_run.metrics.tbt), format_fixed(gain, 1),
             format_fixed(helm_run.metrics.tbt / nv_helm.metrics.tbt, 2),
             format_fixed(r1, 2)});
        if (match_nvdram < 0 &&
            helm_run.metrics.tbt <= nv_helm.metrics.tbt) {
            match_nvdram = gbps;
        }
        if (crossover < 0 && r1 >= 1.0)
            crossover = gbps;
    }
    table.print(std::cout);

    std::cout << "\nCXL bandwidth to match NVDRAM+HeLM latency: "
              << (match_nvdram > 0
                      ? format_fixed(match_nvdram, 0) + " GB/s"
                      : std::string("above the sweep range"))
              << "\n";
    std::cout << "HeLM prefill crossover (FFN load hidden behind MHA "
                 "compute): "
              << (crossover > 0 ? format_fixed(crossover, 0) + " GB/s"
                                : std::string("above the sweep range"))
              << "  (paper: only CXL-ASIC at 28 GB/s crosses)\n";
    return 0;
}
