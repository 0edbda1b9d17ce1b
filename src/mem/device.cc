#include "mem/device.h"

#include <algorithm>

#include "common/status.h"
#include "mem/calibration.h"

namespace helm::mem {

namespace {

/** Reads are node-independent, but the node must still exist. */
void
check_numa_node(int node)
{
    HELM_ASSERT(node >= 0 && node < kNumNumaNodes, "bad NUMA node index");
}

} // namespace

const char *
memory_kind_name(MemoryKind kind)
{
    switch (kind) {
      case MemoryKind::kDram:
        return "DRAM";
      case MemoryKind::kOptane:
        return "NVDRAM";
      case MemoryKind::kMemoryMode:
        return "MemoryMode";
      case MemoryKind::kSsd:
        return "SSD";
      case MemoryKind::kFsdax:
        return "FSDAX";
      case MemoryKind::kCxl:
        return "CXL";
      case MemoryKind::kNdpDimm:
        return "NDP-DIMM";
      case MemoryKind::kHbf:
        return "HBF";
    }
    // Exhaustive by construction: -Wswitch-enum flags any new kind at
    // compile time; this line is unreachable for in-range values.
    HELM_ASSERT(false, "unknown MemoryKind");
    return "?";
}

MemoryDevice::MemoryDevice(std::string name, MemoryKind kind, Bytes capacity,
                           BandwidthCurve read, BandwidthCurve write,
                           Seconds latency)
    : name_(std::move(name)),
      kind_(kind),
      capacity_(capacity),
      read_(std::move(read)),
      write_(std::move(write)),
      latency_(latency)
{
    HELM_ASSERT(capacity_ > 0, "device capacity must be positive");
}

double
MemoryDevice::write_node_factor(int node) const
{
    check_numa_node(node);
    return write_factors_[static_cast<std::size_t>(node)];
}

void
MemoryDevice::set_write_node_factors(
    std::array<double, kNumNumaNodes> factors)
{
    write_factors_ = factors;
}

Bandwidth
MemoryDevice::read_bandwidth(Bytes buffer, int node) const
{
    check_numa_node(node);
    return read_.at(buffer);
}

Bandwidth
MemoryDevice::write_bandwidth(Bytes buffer, int node) const
{
    return write_.at(buffer).scaled(write_node_factor(node));
}

OptaneDevice::OptaneDevice(std::string name, Bytes capacity,
                           BandwidthCurve streaming_read,
                           BandwidthCurve cold_read, BandwidthCurve write,
                           Seconds latency)
    : MemoryDevice(std::move(name), MemoryKind::kOptane, capacity,
                   std::move(streaming_read), std::move(write), latency),
      cold_read_(std::move(cold_read))
{
}

Bandwidth
OptaneDevice::read_bandwidth(Bytes buffer, int node) const
{
    check_numa_node(node);
    return read_curve().at(std::max(resident_, buffer));
}

Bandwidth
OptaneDevice::cold_read_bandwidth(Bytes buffer, int node) const
{
    check_numa_node(node);
    return cold_read_.at(buffer);
}

MemoryModeDevice::MemoryModeDevice(std::string name,
                                   Bytes dram_cache_capacity,
                                   Bytes backing_capacity,
                                   BandwidthCurve dram_read,
                                   BandwidthCurve dram_write,
                                   Bandwidth miss_bandwidth, Seconds latency)
    : MemoryDevice(std::move(name), MemoryKind::kMemoryMode,
                   backing_capacity, std::move(dram_read),
                   std::move(dram_write), latency),
      cache_capacity_(dram_cache_capacity),
      miss_bandwidth_(miss_bandwidth)
{
    HELM_ASSERT(cache_capacity_ > 0, "cache capacity must be positive");
    HELM_ASSERT(miss_bandwidth_.raw() > 0.0,
                "miss bandwidth must be positive");
}

void
MemoryModeDevice::set_resident_bytes(Bytes resident)
{
    resident_ = resident;
}

double
MemoryModeDevice::hit_ratio(Bytes working_set) const
{
    if (working_set == 0 || working_set <= cache_capacity_)
        return 1.0;
    // Direct-mapped cache under a uniformly cycled working set: the
    // cached fraction of the set is served from DRAM.
    return static_cast<double>(cache_capacity_) /
           static_cast<double>(working_set);
}

double
MemoryModeDevice::effective_hit_ratio(Bytes buffer) const
{
    return hit_ratio(resident_ > 0 ? resident_ : buffer);
}

Bandwidth
MemoryModeDevice::hit_path_read_bandwidth(Bytes buffer, int node) const
{
    check_numa_node(node);
    return read_curve().at(buffer);
}

Bandwidth
MemoryModeDevice::read_bandwidth(Bytes buffer, int node) const
{
    const double hit = effective_hit_ratio(buffer);
    const double hit_bw = hit_path_read_bandwidth(buffer, node).raw() *
                          cal::kMemoryModeHitFactor;
    const double miss_bw = miss_bandwidth_.raw();
    // Streaming through a hit/miss mixture: harmonic (time-weighted) mean.
    const double effective =
        1.0 / (hit / hit_bw + (1.0 - hit) / miss_bw);
    return Bandwidth::bytes_per_s(effective);
}

Bandwidth
MemoryModeDevice::write_bandwidth(Bytes buffer, int node) const
{
    const Bytes working_set = resident_ > 0 ? resident_ : buffer;
    const double hit = hit_ratio(working_set);
    const double hit_bw = write_curve().at(buffer).raw() *
                          cal::kMemoryModeHitFactor *
                          write_node_factor(node);
    // Write misses behind the DRAM cache drain at the Optane write rate.
    const double miss_bw = cal::kOptaneWriteGBs * static_cast<double>(kGB);
    const double effective =
        1.0 / (hit / hit_bw + (1.0 - hit) / miss_bw);
    return Bandwidth::bytes_per_s(effective);
}

NdpDimmDevice::NdpDimmDevice(std::string name, Bytes capacity,
                             BandwidthCurve read, BandwidthCurve write,
                             Seconds latency, Bandwidth gemv_rate,
                             double gemv_flops, Seconds command_latency)
    : MemoryDevice(std::move(name), MemoryKind::kNdpDimm, capacity,
                   std::move(read), std::move(write), latency),
      gemv_rate_(gemv_rate),
      gemv_flops_(gemv_flops),
      command_latency_(command_latency)
{
    HELM_ASSERT(gemv_rate_.raw() > 0.0, "NDP GEMV rate must be positive");
    HELM_ASSERT(gemv_flops_ > 0.0, "NDP GEMV FLOP/s must be positive");
    HELM_ASSERT(command_latency_ >= 0.0,
                "NDP command latency must be non-negative");
}

HbfDevice::HbfDevice(std::string name, Bytes capacity,
                     BandwidthCurve warm_read, BandwidthCurve cold_read,
                     BandwidthCurve write, Seconds latency,
                     Bytes endurance_budget)
    : MemoryDevice(std::move(name), MemoryKind::kHbf, capacity,
                   std::move(warm_read), std::move(write), latency),
      cold_read_(std::move(cold_read)),
      endurance_budget_(endurance_budget)
{
    HELM_ASSERT(endurance_budget_ > 0,
                "HBF endurance budget must be positive");
}

Bandwidth
HbfDevice::cold_read_bandwidth(Bytes buffer, int node) const
{
    check_numa_node(node);
    return cold_read_.at(buffer);
}

StorageDevice::StorageDevice(std::string name, MemoryKind kind,
                             Bytes capacity, BandwidthCurve read,
                             BandwidthCurve write, Seconds latency)
    : MemoryDevice(std::move(name), kind, capacity, std::move(read),
                   std::move(write), latency)
{
    HELM_ASSERT(kind == MemoryKind::kSsd || kind == MemoryKind::kFsdax,
                "StorageDevice kind must be a storage kind");
}

namespace {

BandwidthCurve
dram_read_curve()
{
    return BandwidthCurve(Bandwidth::gb_per_s(cal::kDramReadGBs));
}

BandwidthCurve
dram_write_curve()
{
    return BandwidthCurve(Bandwidth::gb_per_s(cal::kDramWriteGBs));
}

/** Optane's Fig. 3a-shaped cold-copy curve: flat to the knee, decaying
 *  steeply after (AIT misses on every chunk of a one-shot sweep). */
BandwidthCurve
optane_cold_read_curve()
{
    return BandwidthCurve(std::vector<BandwidthCurve::Point>{
        {256 * kMiB, Bandwidth::gb_per_s(cal::kOptaneReadSmallGBs)},
        {cal::kOptaneReadKnee,
         Bandwidth::gb_per_s(cal::kOptaneReadSmallGBs)},
        {cal::kOptaneColdReadFloorAt,
         Bandwidth::gb_per_s(cal::kOptaneColdReadLargeGBs)},
    });
}

/** Steady-state streaming curve, indexed by resident working set. */
BandwidthCurve
optane_streaming_read_curve()
{
    return BandwidthCurve(std::vector<BandwidthCurve::Point>{
        {cal::kOptaneReadKnee,
         Bandwidth::gb_per_s(cal::kOptaneReadSmallGBs)},
        {cal::kOptaneStreamKnee,
         Bandwidth::gb_per_s(cal::kOptaneStreamKneeGBs)},
        {cal::kOptaneStreamFloorAt,
         Bandwidth::gb_per_s(cal::kOptaneStreamFloorGBs)},
    });
}

/** Optane write: peaks at ~1 GiB buffers, slightly lower elsewhere. */
BandwidthCurve
optane_write_curve()
{
    const double peak = cal::kOptaneWriteGBs;
    return BandwidthCurve(std::vector<BandwidthCurve::Point>{
        {256 * kMiB, Bandwidth::gb_per_s(peak * 0.93)},
        {1 * kGiB, Bandwidth::gb_per_s(peak)},
        {8 * kGiB, Bandwidth::gb_per_s(peak * 0.95)},
        {32 * kGiB, Bandwidth::gb_per_s(peak * 0.92)},
    });
}

} // namespace

DevicePtr
make_dram()
{
    auto dev = std::make_shared<MemoryDevice>(
        "DRAM", MemoryKind::kDram, 2 * cal::kDramCapacityPerSocket,
        dram_read_curve(), dram_write_curve(), cal::kDramLatency);
    // Remote-socket accesses cross UPI; node 1 is remote from the GPU's
    // root port but DRAM still saturates PCIe from either node (Fig. 3:
    // DRAM-0 and DRAM-1 overlap), so no *visible* derate is applied to
    // the copy path; the factor matters only for direct CPU access.
    return dev;
}

DevicePtr
make_optane()
{
    auto dev = std::make_shared<OptaneDevice>(
        "NVDRAM", 2 * cal::kOptaneCapacityPerSocket,
        optane_streaming_read_curve(), optane_cold_read_curve(),
        optane_write_curve(), cal::kOptaneLatency);
    // Fig. 3b: NVDRAM write bandwidth differs between sockets; node 0
    // (the GPU-local socket in the paper's labeling) sits below node 1.
    dev->set_write_node_factors({cal::kOptaneWriteRemoteFactor, 1.0});
    return dev;
}

std::shared_ptr<MemoryModeDevice>
make_memory_mode()
{
    auto dev = std::make_shared<MemoryModeDevice>(
        "MemoryMode", 2 * cal::kDramCapacityPerSocket,
        2 * cal::kOptaneCapacityPerSocket, dram_read_curve(),
        dram_write_curve(), Bandwidth::gb_per_s(cal::kMemoryModeMissGBs),
        cal::kDramLatency);
    // Fig. 3b: MM-1 overlaps DRAM d2h but MM-0 does not (remote MM cannot
    // reach remote-DRAM bandwidth per the paper's MLC check).  The factor
    // must pull node 0 below the PCIe d2h cap (~26 GB/s) to be visible.
    dev->set_write_node_factors({0.35, 1.0});
    return dev;
}

DevicePtr
make_ssd()
{
    return std::make_shared<StorageDevice>(
        "SSD", MemoryKind::kSsd, 2 * cal::kOptaneCapacityPerSocket,
        BandwidthCurve(Bandwidth::gb_per_s(cal::kSsdReadGBs)),
        BandwidthCurve(Bandwidth::gb_per_s(cal::kStorageWriteGBs)),
        cal::kStorageLatency);
}

DevicePtr
make_fsdax()
{
    return std::make_shared<StorageDevice>(
        "FSDAX", MemoryKind::kFsdax, 2 * cal::kOptaneCapacityPerSocket,
        BandwidthCurve(Bandwidth::gb_per_s(cal::kFsdaxReadGBs)),
        BandwidthCurve(Bandwidth::gb_per_s(cal::kStorageWriteGBs)),
        cal::kStorageLatency);
}

DevicePtr
make_cxl_fpga()
{
    return make_cxl_custom("CXL-FPGA",
                           Bandwidth::gb_per_s(cal::kCxlFpgaGBs));
}

DevicePtr
make_cxl_asic()
{
    return make_cxl_custom("CXL-ASIC",
                           Bandwidth::gb_per_s(cal::kCxlAsicGBs));
}

DevicePtr
make_cxl_custom(const std::string &name, Bandwidth read_bw)
{
    HELM_ASSERT(read_bw.raw() > 0.0, "CXL read bandwidth must be positive");
    return std::make_shared<MemoryDevice>(
        name, MemoryKind::kCxl, 2 * cal::kOptaneCapacityPerSocket,
        BandwidthCurve(read_bw),
        BandwidthCurve(read_bw.scaled(cal::kCxlWriteFactor)),
        cal::kDramLatency + cal::kCxlAddedLatency);
}

std::shared_ptr<NdpDimmDevice>
make_ndp_dimm()
{
    // Externally a DDR4 pool (DRAM-class flat curves); the near-data
    // side is what differentiates it.
    return std::make_shared<NdpDimmDevice>(
        "NDP-DIMM", 2 * cal::kNdpDimmCapacityPerSocket,
        BandwidthCurve(Bandwidth::gb_per_s(cal::kNdpDimmReadGBs)),
        BandwidthCurve(Bandwidth::gb_per_s(cal::kNdpDimmWriteGBs)),
        cal::kNdpDimmLatency, Bandwidth::gb_per_s(cal::kNdpGemvGBs),
        cal::kNdpGemvTflops * 1e12, cal::kNdpCommandLatency);
}

std::shared_ptr<HbfDevice>
make_hbf()
{
    return std::make_shared<HbfDevice>(
        "HBF", cal::kHbfCapacity,
        BandwidthCurve(Bandwidth::gb_per_s(cal::kHbfWarmReadGBs)),
        // Cold first-touch curve: flat to the knee, then flash sensing
        // dominates (same shape as Optane's Fig. 3a curve, steeper).
        BandwidthCurve(std::vector<BandwidthCurve::Point>{
            {256 * kMiB, Bandwidth::gb_per_s(cal::kHbfColdReadSmallGBs)},
            {cal::kHbfColdReadKnee,
             Bandwidth::gb_per_s(cal::kHbfColdReadSmallGBs)},
            {cal::kHbfColdReadFloorAt,
             Bandwidth::gb_per_s(cal::kHbfColdReadLargeGBs)},
        }),
        BandwidthCurve(Bandwidth::gb_per_s(cal::kHbfWriteGBs)),
        cal::kHbfLatency, cal::kHbfEnduranceBytes);
}

} // namespace helm::mem
