/**
 * @file
 * Device table: the "backend zoo", and the one host selector that
 * resolves through it.
 *
 * ConfigKind enumerates the paper's fixed Table II/III rows; the table
 * adds the zoo devices (NDP-DIMM, HBF) to them.  Every device has one
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

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mem/host_system.h"

namespace helm::mem {

/**
 * The host memory a run sits on: a device-table name (the paper's rows
 * and the zoo alike) or a custom CXL expander of a given read
 * bandwidth (Sec. V-D what-if sweeps).  One value, so two selections
 * can never disagree; make_system() resolves it.
 */
class HostSpec
{
  public:
    /** A paper row.  Implicit, so `spec.memory = ConfigKind::kNvdram`
     *  names the table's "NVDRAM" entry. */
    HostSpec(ConfigKind kind = ConfigKind::kNvdram)
        : name_(config_kind_name(kind))
    {
    }

    /** A table device by (case-insensitive) name; an unknown name
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

    /** The table name, or "CXL-custom" for a custom expander. */
    const std::string &name() const { return name_; }

    bool is_custom_cxl() const { return cxl_read_bw_.has_value(); }

    /** The custom expander's read bandwidth; only when is_custom_cxl(). */
    Bandwidth cxl_read_bandwidth() const { return *cxl_read_bw_; }

  private:
    std::string name_;
    std::optional<Bandwidth> cxl_read_bw_;
};

/** One device of the zoo: a named factory plus a listing line. */
struct RegisteredDevice
{
    const char *name;    //!< canonical label (also the system label)
    const char *summary; //!< one-line description for listings
    /** Builds a fresh device instance (devices are stateful: resident
     *  sets, endurance counters — never share one across runs). */
    DevicePtr (*make)();

    /** True when the device sits in the storage tier and pairs with a
     *  DRAM host (Table II SSD/FSDAX pattern): the devices that stage
     *  reads through a bounce buffer (Sec. IV-B). */
    bool storage_tier() const { return make()->needs_bounce_buffer(); }
};

/** The built-in zoo in listing order: the paper's seven devices, then
 *  NDP-DIMM and HBF. */
std::span<const RegisteredDevice> device_table();

/** The table entry @p name names, in any case, or nullptr. */
const RegisteredDevice *find_device(const std::string &name);

/** The table's names, in listing order. */
std::vector<std::string> device_names();

/**
 * Compose the HostMemorySystem @p host names: storage-tier devices get
 * a DRAM host in front (bounce-buffer semantics come from the device
 * itself), byte-addressable devices and custom CXL expanders become the
 * host tier.  Fails with kInvalidArgument naming an unknown device and
 * listing the table's, or on a non-positive custom CXL bandwidth.
 */
Result<HostMemorySystem> make_system(const HostSpec &host,
                                     PcieLink pcie = PcieLink::gen4_x16());

} // namespace helm::mem

#endif // HELM_MEM_REGISTRY_H
