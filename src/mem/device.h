/**
 * @file
 * Memory/storage device models.
 *
 * A MemoryDevice answers one question: at what rate can a streaming
 * transfer of a given size be sourced from (read) or sunk into (write)
 * this device, from the perspective of a given NUMA node?  Concrete
 * devices are table-driven from mem/calibration.h so that the simulated
 * Fig. 3 sweep and the LLM runtime consume the same curves.
 */
#ifndef HELM_MEM_DEVICE_H
#define HELM_MEM_DEVICE_H

#include <array>
#include <memory>
#include <string>

#include "common/units.h"
#include "mem/bandwidth_curve.h"

namespace helm::mem {

/** Which technology a device models (drives labeling + special cases). */
enum class MemoryKind
{
    kDram,       //!< plain DDR4 host memory
    kOptane,     //!< Optane DCPMM as a memory-only NUMA node ("NVDRAM")
    kMemoryMode, //!< Optane main memory with DRAM as direct-mapped cache
    kSsd,        //!< Optane as block storage (ext4, page cache)
    kFsdax,      //!< Optane as DAX storage (ext4-DAX, bounce buffer)
    kCxl,        //!< CXL Type-3 memory expander
    kNdpDimm,    //!< near-data-processing DIMM pool (arXiv 2502.16963)
    kHbf,        //!< High Bandwidth Flash tier (arXiv 2601.05047)
};

/** Printable name of a MemoryKind. */
const char *memory_kind_name(MemoryKind kind);

/** Number of NUMA nodes modeled (Table I: dual socket). */
inline constexpr int kNumNumaNodes = 2;

/**
 * Base device: capacity plus per-direction bandwidth curves, with
 * per-NUMA-node derate factors on writes (reads are node-independent).
 *
 * Node indices follow the paper's convention: the GPU's PCIe root port
 * hangs off node 0.
 */
class MemoryDevice
{
  public:
    /**
     * @param name Diagnostic/label name (e.g. "NVDRAM").
     * @param kind Technology tag.
     * @param capacity Usable bytes (per the configuration, not per DIMM).
     * @param read Streaming read curve (every node).
     * @param write Streaming write curve (node 0, before node factors).
     * @param latency Idle access latency.
     */
    MemoryDevice(std::string name, MemoryKind kind, Bytes capacity,
                 BandwidthCurve read, BandwidthCurve write,
                 Seconds latency);

    virtual ~MemoryDevice() = default;

    const std::string &name() const { return name_; }
    MemoryKind kind() const { return kind_; }
    Bytes capacity() const { return capacity_; }
    Seconds latency() const { return latency_; }

    /** Steady-state streaming read bandwidth for a @p buffer-byte chunk. */
    virtual Bandwidth read_bandwidth(Bytes buffer, int node = 0) const;

    /** Streaming write bandwidth for a @p buffer-byte transfer. */
    virtual Bandwidth write_bandwidth(Bytes buffer, int node = 0) const;

    /**
     * One-shot (cold) copy read bandwidth — what an nvbandwidth-style
     * sweep of a never-before-touched buffer sees.  Defaults to the
     * streaming rate; devices with warm-up-sensitive translation layers
     * (Optane's AIT) override this with a steeper curve.
     */
    virtual Bandwidth
    cold_read_bandwidth(Bytes buffer, int node = 0) const
    {
        return read_bandwidth(buffer, node);
    }

    /**
     * Declare the steady-state resident working set cyclically re-read
     * from this device (e.g. the host-tier model weights).  Devices
     * whose sustained bandwidth depends on the working set (Optane,
     * MemoryMode) use it; others ignore it.
     */
    virtual void set_resident_bytes(Bytes resident) { (void)resident; }

    /**
     * True when host<->GPU copies must stage through a DRAM bounce buffer
     * (storage devices exposed through a filesystem, Sec. IV-B).
     */
    virtual bool needs_bounce_buffer() const { return false; }

    /** Per-node bandwidth multiplier for writes (default 1.0 for all). */
    void set_write_node_factors(std::array<double, kNumNumaNodes> factors);

  protected:
    double write_node_factor(int node) const;

    const BandwidthCurve &read_curve() const { return read_; }
    const BandwidthCurve &write_curve() const { return write_; }

  private:
    std::string name_;
    MemoryKind kind_;
    Bytes capacity_;
    BandwidthCurve read_;
    BandwidthCurve write_;
    Seconds latency_;
    std::array<double, kNumNumaNodes> write_factors_{1.0, 1.0};
};

/**
 * Optane DCPMM exposed as a memory-only NUMA node ("NVDRAM").
 *
 * Two read regimes, both anchored to measurements (mem/calibration.h):
 * one-shot cold copies decay steeply with buffer size (Fig. 3a: AIT
 * misses on every chunk), while steady-state streaming of a cyclically
 * re-read resident set decays gently with the resident-set size.
 */
class OptaneDevice : public MemoryDevice
{
  public:
    /**
     * @param streaming_read Steady-state curve, indexed by working set.
     * @param cold_read One-shot copy curve, indexed by buffer size.
     */
    OptaneDevice(std::string name, Bytes capacity,
                 BandwidthCurve streaming_read, BandwidthCurve cold_read,
                 BandwidthCurve write, Seconds latency);

    /** Streaming rate at working set max(resident, buffer). */
    Bandwidth read_bandwidth(Bytes buffer, int node = 0) const override;

    /** Fig. 3a's buffer-size-dependent cold-copy rate. */
    Bandwidth cold_read_bandwidth(Bytes buffer,
                                  int node = 0) const override;

    void set_resident_bytes(Bytes resident) override
    {
        resident_ = resident;
    }

  private:
    BandwidthCurve cold_read_;
    Bytes resident_ = 0;
};

/**
 * Optane Memory Mode: DRAM acts as a direct-mapped cache in front of
 * Optane.  Effective bandwidth depends on how much of the *resident set*
 * (the working set the host keeps cycling through, e.g. all host-side
 * model weights) fits in the DRAM cache.  The runtime sets the resident
 * set before a run; the membench sweep uses the buffer size itself.
 */
class MemoryModeDevice : public MemoryDevice
{
  public:
    /**
     * @param dram_cache_capacity DRAM bytes acting as the cache.
     * @param backing_capacity Optane bytes behind the cache.
     * @param dram_read DRAM hit-path curve (pre hit-factor derate).
     * @param dram_write DRAM write curve.
     * @param miss_bandwidth Streaming miss-path bandwidth.
     */
    MemoryModeDevice(std::string name, Bytes dram_cache_capacity,
                     Bytes backing_capacity, BandwidthCurve dram_read,
                     BandwidthCurve dram_write, Bandwidth miss_bandwidth,
                     Seconds latency);

    /**
     * Declare the steady-state resident set.  Zero (default) means "use
     * the per-transfer buffer size", which is the right semantics for
     * one-shot copy benchmarks.
     */
    void set_resident_bytes(Bytes resident) override;

    /** Fraction of accesses served by the DRAM cache for @p working_set. */
    double hit_ratio(Bytes working_set) const;

    /** Hit ratio of the effective working set (resident or @p buffer). */
    double effective_hit_ratio(Bytes buffer) const;

    /**
     * Hit-path (DRAM cache) raw read rate for @p buffer,
     * before the Memory-Mode management derate.  Consumers that stream
     * through a downstream link (PCIe) must cap this component first and
     * then mix with the miss path — see HostMemorySystem::host_to_gpu_bw.
     */
    Bandwidth hit_path_read_bandwidth(Bytes buffer, int node = 0) const;

    /** Miss-path (Optane fetch + cache fill) streaming rate. */
    Bandwidth miss_bandwidth() const { return miss_bandwidth_; }

    Bandwidth read_bandwidth(Bytes buffer, int node = 0) const override;
    Bandwidth write_bandwidth(Bytes buffer, int node = 0) const override;

  private:
    Bytes cache_capacity_;
    Bandwidth miss_bandwidth_;
    Bytes resident_ = 0;
};

/**
 * Storage-tier device (Table II "SSD"/"FSDAX" rows): Optane behind a
 * filesystem.  Reads must bounce through DRAM before reaching the GPU.
 */
class StorageDevice : public MemoryDevice
{
  public:
    StorageDevice(std::string name, MemoryKind kind, Bytes capacity,
                  BandwidthCurve read, BandwidthCurve write,
                  Seconds latency);

    bool needs_bounce_buffer() const override { return true; }
};

/**
 * NDP-DIMM pool (arXiv 2502.16963): commodity DDR4 externally, plus
 * near-bank GEMV units that execute host-resident layers in place.  The
 * external curves are DRAM-class; the near-data side is described by a
 * streaming rate, a compute rate, and a per-dispatch command latency
 * that the engine's compute-site seam charges through the DES instead
 * of an h2d transfer.
 */
class NdpDimmDevice : public MemoryDevice
{
  public:
    NdpDimmDevice(std::string name, Bytes capacity, BandwidthCurve read,
                  BandwidthCurve write, Seconds latency,
                  Bandwidth gemv_rate, double gemv_flops,
                  Seconds command_latency);

    /** Aggregate near-bank operand streaming rate (unshared with host). */
    Bandwidth gemv_rate() const { return gemv_rate_; }
    /** Aggregate near-data compute rate, FLOP/s. */
    double gemv_flops() const { return gemv_flops_; }
    /** Host -> NDP offload dispatch latency per layer command. */
    Seconds command_latency() const { return command_latency_; }

  private:
    Bandwidth gemv_rate_;
    double gemv_flops_;
    Seconds command_latency_;
};

/**
 * High Bandwidth Flash (arXiv 2601.05047): a ~10x-capacity tier below
 * NVDRAM.  Warm streaming reads run at HBM-class rates (the PCIe link
 * caps the copy path, not the device); cold first-touch reads decay
 * steeply (flash sensing); writes are slow and consume a finite
 * program/erase endurance budget tracked here as a byte counter.
 */
class HbfDevice : public MemoryDevice
{
  public:
    HbfDevice(std::string name, Bytes capacity,
              BandwidthCurve warm_read, BandwidthCurve cold_read,
              BandwidthCurve write, Seconds latency,
              Bytes endurance_budget);

    /** Steep first-touch curve (flash array sensing per page). */
    Bandwidth cold_read_bandwidth(Bytes buffer,
                                  int node = 0) const override;

    /** Charge @p bytes of program traffic against the endurance budget. */
    void record_write(Bytes bytes) { written_bytes_ += bytes; }
    /** Lifetime program traffic charged so far. */
    Bytes written_bytes() const { return written_bytes_; }
    /** Total program budget before wear-out. */
    Bytes endurance_budget() const { return endurance_budget_; }
    /** Program budget still available (0 once exhausted). */
    Bytes
    endurance_remaining() const
    {
        return written_bytes_ >= endurance_budget_
                   ? 0
                   : endurance_budget_ - written_bytes_;
    }
    bool endurance_exhausted() const { return endurance_remaining() == 0; }

  private:
    BandwidthCurve cold_read_;
    Bytes endurance_budget_;
    Bytes written_bytes_ = 0;
};

/** Owned device handle used throughout configuration code. */
using DevicePtr = std::shared_ptr<MemoryDevice>;

// Factory functions: one per Table I/II/III device, calibrated from
// mem/calibration.h.

/** Host DRAM (both sockets pooled; Table I). */
DevicePtr make_dram();

/** Optane as a memory-only NUMA node ("NVDRAM", Table II). */
DevicePtr make_optane();

/** Optane Memory Mode (DRAM cache + Optane backing, Table II). */
std::shared_ptr<MemoryModeDevice> make_memory_mode();

/** Optane as block storage through ext4 ("SSD" label, Table II). */
DevicePtr make_ssd();

/** Optane as DAX storage through ext4-DAX ("FSDAX" label, Table II). */
DevicePtr make_fsdax();

/** CXL expander with an FPGA controller (Table III, CXL-FPGA). */
DevicePtr make_cxl_fpga();

/** CXL expander with an ASIC controller (Table III, CXL-ASIC). */
DevicePtr make_cxl_asic();

/** CXL expander with arbitrary read bandwidth (what-if sweeps). */
DevicePtr make_cxl_custom(const std::string &name, Bandwidth read_bw);

/** NDP-DIMM pool with near-bank GEMV units (arXiv 2502.16963). */
std::shared_ptr<NdpDimmDevice> make_ndp_dimm();

/** High Bandwidth Flash tier, 10x NVDRAM capacity (arXiv 2601.05047). */
std::shared_ptr<HbfDevice> make_hbf();

} // namespace helm::mem

#endif // HELM_MEM_DEVICE_H
