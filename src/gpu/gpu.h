/**
 * @file
 * GPU device model (NVIDIA A100-40GB by default).
 *
 * The GPU contributes three things to the simulation: HBM capacity (the
 * placement constraint), a roofline compute-time model (Fig. 1's
 * GEMM-vs-GEMV distinction), and a dequantization cost for compressed
 * weights (Fig. 6's compute inflation).
 */
#ifndef HELM_GPU_GPU_H
#define HELM_GPU_GPU_H

#include <string>

#include "common/units.h"

namespace helm::gpu {

/** Static description of an accelerator. */
struct GpuSpec
{
    std::string name = "A100-40GB";
    Bytes hbm_capacity = 0;
    Bandwidth hbm_bandwidth;
    double peak_fp16_flops = 0.0; //!< FLOP/s, dense tensor-core peak
    double gemm_efficiency = 0.0; //!< achieved fraction for large GEMMs
    double hbm_efficiency = 0.0;  //!< achieved fraction for GEMV/attention
    Bandwidth dequant_bandwidth;  //!< uncompressed bytes/s for dequant
    Seconds layer_overhead = 0.0; //!< per-layer launch + sync cost
    Bytes base_reserve = 0;       //!< fixed HBM reserve (context, slack)

    /** The paper's accelerator (Table I), from mem/calibration.h. */
    static GpuSpec a100_40gb();

    /** Effective GEMM throughput in FLOP/s. */
    double effective_flops() const
    {
        return peak_fp16_flops * gemm_efficiency;
    }

    /** Effective bandwidth for memory-bound kernels. */
    Bandwidth effective_hbm() const
    {
        return hbm_bandwidth.scaled(hbm_efficiency);
    }
};

} // namespace helm::gpu

#endif // HELM_GPU_GPU_H
