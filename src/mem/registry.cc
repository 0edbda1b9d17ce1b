#include "mem/registry.h"

#include "common/args.h"

namespace helm::mem {

namespace {

DeviceRegistry
build_builtin()
{
    DeviceRegistry registry;
    const auto add = [&registry](const char *name, const char *summary,
                                 std::function<DevicePtr()> make,
                                 bool storage_tier = false) {
        RegisteredDevice dev;
        dev.name = name;
        dev.summary = summary;
        dev.make = std::move(make);
        dev.storage_tier = storage_tier;
        const Status status = registry.add(std::move(dev));
        HELM_ASSERT(status.is_ok(), "builtin registry must be consistent");
    };
    add("DRAM", "dual-socket DDR4 host memory (Table I)",
        [] { return make_dram(); });
    add("NVDRAM", "Optane DCPMM as a memory-only NUMA node (Table II)",
        [] { return make_optane(); });
    add("MemoryMode", "Optane main memory behind a DRAM cache (Table II)",
        [] { return make_memory_mode(); });
    add("SSD", "Optane block storage via ext4 + page cache (Table II)",
        [] { return make_ssd(); }, /*storage_tier=*/true);
    add("FSDAX", "Optane DAX storage via ext4-DAX (Table II)",
        [] { return make_fsdax(); }, /*storage_tier=*/true);
    add("CXL-FPGA", "CXL expander, FPGA controller + DDR4 (Table III)",
        [] { return make_cxl_fpga(); });
    add("CXL-ASIC", "CXL expander, ASIC controller + DDR5 (Table III)",
        [] { return make_cxl_asic(); });
    add("NDP-DIMM",
        "DDR4 pool with near-bank GEMV units (arXiv 2502.16963)",
        [] { return make_ndp_dimm(); });
    add("HBF",
        "High Bandwidth Flash, 10x NVDRAM capacity (arXiv 2601.05047)",
        [] { return make_hbf(); });
    return registry;
}

} // namespace

const DeviceRegistry &
DeviceRegistry::builtin()
{
    static const DeviceRegistry registry = build_builtin();
    return registry;
}

Status
DeviceRegistry::add(RegisteredDevice device)
{
    if (device.name.empty())
        return Status::invalid_argument("device name must be non-empty");
    if (!device.make)
        return Status::invalid_argument("device factory must be set");
    if (find(device.name) != nullptr) {
        return Status::invalid_argument("device '" + device.name +
                                        "' is already registered");
    }
    devices_.push_back(std::move(device));
    return Status::ok();
}

const RegisteredDevice *
DeviceRegistry::find(const std::string &name) const
{
    for (const RegisteredDevice &device : devices_) {
        if (iequals(device.name, name))
            return &device;
    }
    return nullptr;
}

std::vector<std::string>
DeviceRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(devices_.size());
    for (const RegisteredDevice &device : devices_)
        out.push_back(device.name);
    return out;
}

Result<HostMemorySystem>
DeviceRegistry::make_system(const HostSpec &host, PcieLink pcie) const
{
    if (host.is_custom_cxl()) {
        if (host.cxl_read_bandwidth().is_zero()) {
            return Status::invalid_argument(
                "custom CXL bandwidth must be positive");
        }
        return HostMemorySystem(
            host.name(),
            make_cxl_custom(host.name(), host.cxl_read_bandwidth()),
            nullptr, pcie);
    }
    const std::string &name = host.name();
    const RegisteredDevice *entry = find(name);
    if (entry == nullptr) {
        std::string known;
        for (const RegisteredDevice &device : devices_) {
            if (!known.empty())
                known += ", ";
            known += device.name;
        }
        return Status::invalid_argument("unknown device '" + name +
                                        "' (registered: " + known + ")");
    }
    if (entry->storage_tier) {
        // Table II pattern: a DRAM host tier in front of the storage
        // device; reads bounce through DRAM per the device's own flag.
        return HostMemorySystem(entry->name, make_dram(), entry->make(),
                                pcie);
    }
    return HostMemorySystem(entry->name, entry->make(), nullptr, pcie);
}

} // namespace helm::mem
