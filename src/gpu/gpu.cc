#include "gpu/gpu.h"

#include "mem/calibration.h"

namespace helm::gpu {

GpuSpec
GpuSpec::a100_40gb()
{
    namespace cal = helm::mem::cal;
    GpuSpec spec;
    spec.name = "A100-40GB";
    spec.hbm_capacity = cal::kGpuHbmCapacity;
    spec.hbm_bandwidth = Bandwidth::gb_per_s(cal::kGpuHbmGBs);
    spec.peak_fp16_flops = cal::kGpuPeakFp16Tflops * 1e12;
    spec.gemm_efficiency = cal::kGpuGemmEfficiency;
    spec.hbm_efficiency = cal::kGpuHbmEfficiency;
    spec.dequant_bandwidth = Bandwidth::gb_per_s(cal::kGpuDequantGBs);
    spec.layer_overhead = cal::kGpuLayerOverhead;
    spec.base_reserve = cal::kGpuBaseReserve;
    return spec;
}

} // namespace helm::gpu
