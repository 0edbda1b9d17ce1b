#include "sweep/cost_model.h"

#include "common/status.h"

namespace helm::sweep {

double
CostModel::dollars_per_gb(mem::MemoryKind kind) const
{
    // Exhaustive by construction: a new MemoryKind fails the
    // -Wswitch-enum build until it gets a price.
    switch (kind) {
      case mem::MemoryKind::kDram:
        return dram_per_gb;
      case mem::MemoryKind::kOptane:
        return optane_per_gb;
      case mem::MemoryKind::kMemoryMode:
        return memory_mode_per_gb;
      case mem::MemoryKind::kSsd:
        return ssd_per_gb;
      case mem::MemoryKind::kFsdax:
        return fsdax_per_gb;
      case mem::MemoryKind::kCxl:
        return cxl_per_gb;
      case mem::MemoryKind::kNdpDimm:
        return ndp_dimm_per_gb;
      case mem::MemoryKind::kHbf:
        return hbf_per_gb;
    }
    HELM_ASSERT(false, "unknown MemoryKind");
    return 0.0;
}

double
CostModel::device_dollars(const mem::MemoryDevice &device) const
{
    // Marketing (decimal) gigabytes, matching how the $/GB figures are
    // quoted.
    const double gb = static_cast<double>(device.capacity()) / 1e9;
    return gb * dollars_per_gb(device.kind());
}

double
CostModel::system_dollars(const mem::HostMemorySystem &system) const
{
    double total = gpu_dollars + host_platform_dollars;
    total += device_dollars(*system.host());
    if (system.has_storage())
        total += device_dollars(*system.storage());
    return total;
}

double
CostModel::cost_per_token(double system_dollars,
                          double tokens_per_s) const
{
    HELM_ASSERT(amortization_years > 0.0,
                "amortization horizon must be positive");
    if (tokens_per_s <= 0.0)
        return 0.0;
    const double seconds = amortization_years * 365.0 * 24.0 * 3600.0;
    return system_dollars / seconds / tokens_per_s;
}

} // namespace helm::sweep
