/**
 * @file
 * Host memory system: the Table II configurations.
 *
 * A HostMemorySystem bundles the byte-addressable host tier, the optional
 * storage tier, and the PCIe link, and resolves end-to-end transfer
 * bandwidths between each tier and the GPU.  This is the object the
 * membench sweep, the placement algorithms, and the inference runtime
 * all consume.
 */
#ifndef HELM_MEM_HOST_SYSTEM_H
#define HELM_MEM_HOST_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "mem/device.h"
#include "mem/pcie.h"

namespace helm::mem {

/** Labels for the memory configurations the paper evaluates. */
enum class ConfigKind
{
    kDram,       //!< all-DRAM host (OPT-30B row 1)
    kNvdram,     //!< Optane as flat main memory
    kMemoryMode, //!< Optane + DRAM cache
    kSsd,        //!< DRAM host + Optane block storage
    kFsdax,      //!< DRAM host + Optane DAX storage
    kCxlFpga,    //!< projection: CXL-FPGA as host tier (Table III)
    kCxlAsic,    //!< projection: CXL-ASIC as host tier (Table III)
};

/** Printable label matching the paper's figure legends. */
const char *config_kind_name(ConfigKind kind);

/** All configurations, in the paper's presentation order. */
std::vector<ConfigKind> all_config_kinds();

/**
 * A concrete host memory configuration.
 *
 * Tier layout mirrors FlexGen's policy triple (disk, cpu, gpu): weights
 * assigned to the "cpu" tier live on host(); weights assigned to the
 * "disk" tier live on storage().  DRAM/NVDRAM/MemoryMode/CXL configs have
 * no storage tier.
 */
class HostMemorySystem
{
  public:
    HostMemorySystem(std::string label, DevicePtr host, DevicePtr storage,
                     PcieLink pcie);

    const std::string &label() const { return label_; }
    const DevicePtr &host() const { return host_; }
    const DevicePtr &storage() const { return storage_; }
    bool has_storage() const { return storage_ != nullptr; }
    const PcieLink &pcie() const { return pcie_; }

    /** NUMA node host buffers are allocated on (default 0 = GPU-local). */
    int numa_node() const { return numa_node_; }
    void set_numa_node(int node);

    /**
     * Effective host-tier -> GPU bandwidth for a @p buffer-byte transfer
     * in steady state: min(host streaming read, PCIe h2d), with
     * MemoryMode's hit/miss mixture applied after the link cap and
     * storage-backed tiers serialized through the DRAM bounce buffer.
     */
    Bandwidth host_to_gpu_bw(Bytes buffer) const;

    /**
     * Same path for a one-shot cold copy (nvbandwidth semantics,
     * Fig. 3a): uses the host device's cold-read curve.
     */
    Bandwidth host_to_gpu_cold_bw(Bytes buffer) const;

    /** Effective storage-tier -> GPU bandwidth (bounce buffer included). */
    Bandwidth storage_to_gpu_bw(Bytes buffer) const;

    /** Effective GPU -> host-tier bandwidth: min(host write, PCIe d2h). */
    Bandwidth gpu_to_host_bw(Bytes buffer) const;

    /**
     * If the host tier is MemoryMode, declare the steady-state resident
     * set so hit ratios reflect the model footprint; no-op otherwise.
     */
    void set_host_resident_bytes(Bytes resident);

    /** MemoryMode host device, or nullptr. */
    MemoryModeDevice *memory_mode() const;

  private:
    std::string label_;
    DevicePtr host_;
    DevicePtr storage_; //!< may be null
    PcieLink pcie_;
    int numa_node_ = 0;
};

/**
 * Build one of the paper's named configurations: the device-table
 * entry of that name (mem/registry.h), the only device table.
 * @param kind Which Table II / Table III row.
 * @param pcie Link to the GPU; defaults to the platform's Gen4 x16.
 */
HostMemorySystem make_config(ConfigKind kind,
                             PcieLink pcie = PcieLink::gen4_x16());

/**
 * Effective bandwidth of a transfer that must serialize through a bounce
 * buffer: total time is the sum of both hops (harmonic combination).
 * Exposed for tests.
 */
Bandwidth bounce_combined_bw(Bandwidth first_hop, Bandwidth second_hop);

} // namespace helm::mem

#endif // HELM_MEM_HOST_SYSTEM_H
