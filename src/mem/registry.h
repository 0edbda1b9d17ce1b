/**
 * @file
 * Device registry: the extensible "backend zoo", and the one host
 * selector that resolves through it.
 *
 * ConfigKind enumerates the paper's fixed Table II/III rows; the
 * registry opens that set up.  Every device — the paper
 * configurations plus the zoo additions (NDP-DIMM, HBF) — registers a
 * named factory here, and make_system() composes a full
 * HostMemorySystem from a HostSpec: storage-class devices pair with a
 * DRAM host tier (the Table II SSD/FSDAX pattern), byte-addressable
 * devices become the host tier directly, and a custom CXL expander
 * becomes a storage-less host tier.  make_config(), the runtime's
 * `ServingSpec::memory`, the `helmsim devices`/`zoo` subcommands, and
 * the ParetoExplorer all resolve devices through this one table.
 */
#ifndef HELM_MEM_REGISTRY_H
#define HELM_MEM_REGISTRY_H

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mem/host_system.h"

namespace helm::mem {

/**
 * The host memory a run sits on: a DeviceRegistry name (the paper's
 * rows and the zoo alike) or a custom CXL expander of a given read
 * bandwidth (Sec. V-D what-if sweeps).  One value, so two selections
 * can never disagree; DeviceRegistry::make_system() resolves it.
 */
class HostSpec
{
  public:
    /** A paper row.  Implicit, so `spec.memory = ConfigKind::kNvdram`
     *  names the registry's "NVDRAM" entry. */
    HostSpec(ConfigKind kind = ConfigKind::kNvdram)
        : name_(config_kind_name(kind))
    {
    }

    /** A registered device by (case-insensitive) name; an unknown name
     *  fails when the spec is resolved. */
    HostSpec(std::string device) : name_(std::move(device)) {}
    HostSpec(const char *device) : name_(device) {}

    /** A custom CXL expander reading at @p read_bw; labelled
     *  "CXL-custom".  A non-positive rate fails at resolution. */
    static HostSpec
    custom_cxl(Bandwidth read_bw)
    {
        HostSpec host("CXL-custom");
        host.cxl_read_bw_ = read_bw;
        return host;
    }

    /** The registry name, or "CXL-custom" for a custom expander. */
    const std::string &name() const { return name_; }

    bool is_custom_cxl() const { return cxl_read_bw_.has_value(); }

    /** The custom expander's read bandwidth; only when is_custom_cxl(). */
    Bandwidth cxl_read_bandwidth() const { return *cxl_read_bw_; }

  private:
    std::string name_;
    std::optional<Bandwidth> cxl_read_bw_;
};

/** One registered device: a named factory plus composition metadata. */
struct RegisteredDevice
{
    std::string name;    //!< canonical label (also the system label)
    std::string summary; //!< one-line description for listings
    /** Builds a fresh device instance (devices are stateful: resident
     *  sets, endurance counters — never share one across runs). */
    std::function<DevicePtr()> make;
    /** True when the device sits in the storage tier and pairs with a
     *  DRAM host (Table II SSD/FSDAX pattern). */
    bool storage_tier = false;
};

/**
 * Ordered, name-addressed collection of device factories.  Lookup is
 * case-insensitive; iteration order is registration order (stable, so
 * listings and sweeps are deterministic).
 */
class DeviceRegistry
{
  public:
    /** Empty registry (tests compose their own). */
    DeviceRegistry() = default;

    /** The built-in zoo: the six paper devices + NDP-DIMM + HBF. */
    static const DeviceRegistry &builtin();

    /** Add a device; rejects duplicate (case-insensitive) names. */
    Status add(RegisteredDevice device);

    /** Registered entry for @p name, or nullptr. */
    const RegisteredDevice *find(const std::string &name) const;

    /** Names in registration order. */
    std::vector<std::string> names() const;

    const std::vector<RegisteredDevice> &devices() const
    {
        return devices_;
    }

    /**
     * Compose the HostMemorySystem @p host names: storage-tier devices
     * get a DRAM host in front (bounce-buffer semantics come from the
     * device itself), byte-addressable devices and custom CXL
     * expanders become the host tier.  Fails with kInvalidArgument
     * naming an unknown device and listing the registered ones, or on
     * a non-positive custom CXL bandwidth.
     */
    Result<HostMemorySystem>
    make_system(const HostSpec &host,
                PcieLink pcie = PcieLink::gen4_x16()) const;

  private:
    std::vector<RegisteredDevice> devices_;
};

} // namespace helm::mem

#endif // HELM_MEM_REGISTRY_H
