#include "mem/host_system.h"

#include <utility>

#include "mem/calibration.h"
#include "mem/registry.h"

namespace helm::mem {

const char *
config_kind_name(ConfigKind kind)
{
    switch (kind) {
      case ConfigKind::kDram:
        return "DRAM";
      case ConfigKind::kNvdram:
        return "NVDRAM";
      case ConfigKind::kMemoryMode:
        return "MemoryMode";
      case ConfigKind::kSsd:
        return "SSD";
      case ConfigKind::kFsdax:
        return "FSDAX";
      case ConfigKind::kCxlFpga:
        return "CXL-FPGA";
      case ConfigKind::kCxlAsic:
        return "CXL-ASIC";
    }
    // Exhaustive by construction (-Wswitch-enum); unreachable in range.
    HELM_ASSERT(false, "unknown ConfigKind");
    return "?";
}

std::vector<ConfigKind>
all_config_kinds()
{
    return {ConfigKind::kSsd,        ConfigKind::kFsdax,
            ConfigKind::kNvdram,     ConfigKind::kMemoryMode,
            ConfigKind::kDram,       ConfigKind::kCxlFpga,
            ConfigKind::kCxlAsic};
}

HostMemorySystem::HostMemorySystem(std::string label, DevicePtr host,
                                   DevicePtr storage, PcieLink pcie)
    : label_(std::move(label)),
      host_(std::move(host)),
      storage_(std::move(storage)),
      pcie_(pcie)
{
    HELM_ASSERT(host_ != nullptr, "host tier device required");
}

void
HostMemorySystem::set_numa_node(int node)
{
    HELM_ASSERT(node >= 0 && node < kNumNumaNodes, "bad NUMA node");
    numa_node_ = node;
}

Bandwidth
bounce_combined_bw(Bandwidth first_hop, Bandwidth second_hop)
{
    // The same bytes traverse both hops back-to-back (FlexGen reads the
    // file into pinned DRAM, then cudaMemcpy's it), so the rates combine
    // harmonically rather than as a min.
    const double t_per_byte = 1.0 / first_hop.raw() + 1.0 / second_hop.raw();
    return Bandwidth::bytes_per_s(1.0 / t_per_byte);
}

Bandwidth
HostMemorySystem::host_to_gpu_bw(Bytes buffer) const
{
    const Bandwidth pcie_bw = pcie_.h2d_effective();
    if (const auto *mm = memory_mode()) {
        // The DMA stream runs at PCIe speed only while hits feed it;
        // misses stall the stream at the Optane fill rate.  Cap the hit
        // path by the link first, then mix harmonically.
        const double hit = mm->effective_hit_ratio(buffer);
        const double hit_bw =
            min_bw(mm->hit_path_read_bandwidth(buffer, numa_node_),
                   pcie_bw)
                .raw() *
            cal::kMemoryModeHitFactor;
        const double miss_bw =
            min_bw(mm->miss_bandwidth(), pcie_bw).raw();
        return Bandwidth::bytes_per_s(
            1.0 / (hit / hit_bw + (1.0 - hit) / miss_bw));
    }
    const Bandwidth dev_bw = host_->read_bandwidth(buffer, numa_node_);
    if (host_->needs_bounce_buffer())
        return bounce_combined_bw(dev_bw, pcie_bw);
    if (host_->kind() == MemoryKind::kCxl) {
        // Sec. V-D projection: the GPU reaches CXL memory over the CXL
        // fabric directly (Gouk et al. [16]), so transfers run at the
        // expander's rate rather than through the host PCIe DMA path.
        return dev_bw;
    }
    return min_bw(dev_bw, pcie_bw);
}

Bandwidth
HostMemorySystem::host_to_gpu_cold_bw(Bytes buffer) const
{
    if (memory_mode() != nullptr)
        return host_to_gpu_bw(buffer);
    const Bandwidth dev_bw =
        host_->cold_read_bandwidth(buffer, numa_node_);
    const Bandwidth pcie_bw = pcie_.h2d_effective();
    if (host_->needs_bounce_buffer())
        return bounce_combined_bw(dev_bw, pcie_bw);
    return min_bw(dev_bw, pcie_bw);
}

Bandwidth
HostMemorySystem::storage_to_gpu_bw(Bytes buffer) const
{
    HELM_ASSERT(storage_ != nullptr, "configuration has no storage tier");
    const Bandwidth dev_bw = storage_->read_bandwidth(buffer, numa_node_);
    const Bandwidth pcie_bw = pcie_.h2d_effective();
    if (storage_->needs_bounce_buffer())
        return bounce_combined_bw(dev_bw, pcie_bw);
    return min_bw(dev_bw, pcie_bw);
}

Bandwidth
HostMemorySystem::gpu_to_host_bw(Bytes buffer) const
{
    const Bandwidth dev_bw = host_->write_bandwidth(buffer, numa_node_);
    const Bandwidth pcie_bw = pcie_.d2h_effective();
    if (host_->needs_bounce_buffer())
        return bounce_combined_bw(pcie_bw, dev_bw);
    return min_bw(dev_bw, pcie_bw);
}

void
HostMemorySystem::set_host_resident_bytes(Bytes resident)
{
    host_->set_resident_bytes(resident);
}

MemoryModeDevice *
HostMemorySystem::memory_mode() const
{
    return dynamic_cast<MemoryModeDevice *>(host_.get());
}

HostMemorySystem
make_config(ConfigKind kind, PcieLink pcie)
{
    auto system = make_system(kind, pcie);
    HELM_ASSERT(system.is_ok(), "every ConfigKind is a registered device");
    return std::move(*system);
}

} // namespace helm::mem
