#include "mem/registry.h"

#include "common/args.h"

namespace helm::mem {

namespace {

constexpr RegisteredDevice kDevices[] = {
    {"DRAM", "dual-socket DDR4 host memory (Table I)", &make_dram},
    {"NVDRAM", "Optane DCPMM as a memory-only NUMA node (Table II)",
     &make_optane},
    {"MemoryMode", "Optane main memory behind a DRAM cache (Table II)",
     []() -> DevicePtr { return make_memory_mode(); }},
    {"SSD", "Optane block storage via ext4 + page cache (Table II)",
     &make_ssd},
    {"FSDAX", "Optane DAX storage via ext4-DAX (Table II)", &make_fsdax},
    {"CXL-FPGA", "CXL expander, FPGA controller + DDR4 (Table III)",
     &make_cxl_fpga},
    {"CXL-ASIC", "CXL expander, ASIC controller + DDR5 (Table III)",
     &make_cxl_asic},
    {"NDP-DIMM", "DDR4 pool with near-bank GEMV units (arXiv 2502.16963)",
     []() -> DevicePtr { return make_ndp_dimm(); }},
    {"HBF", "High Bandwidth Flash, 10x NVDRAM capacity (arXiv 2601.05047)",
     []() -> DevicePtr { return make_hbf(); }},
};

} // namespace

std::span<const RegisteredDevice>
device_table()
{
    return kDevices;
}

const RegisteredDevice *
find_device(const std::string &name)
{
    for (const RegisteredDevice &device : kDevices) {
        if (iequals(device.name, name))
            return &device;
    }
    return nullptr;
}

std::vector<std::string>
device_names()
{
    std::vector<std::string> out;
    for (const RegisteredDevice &device : kDevices)
        out.push_back(device.name);
    return out;
}

Result<HostMemorySystem>
make_system(const HostSpec &host, PcieLink pcie)
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
    const RegisteredDevice *entry = find_device(name);
    if (entry == nullptr) {
        std::string known;
        for (const RegisteredDevice &device : kDevices) {
            if (!known.empty())
                known += ", ";
            known += device.name;
        }
        return Status::invalid_argument("unknown device '" + name +
                                        "' (registered: " + known + ")");
    }
    DevicePtr device = entry->make();
    if (device->needs_bounce_buffer()) {
        // Table II pattern: a DRAM host tier in front of the storage
        // device; reads bounce through DRAM per the device's own flag.
        return HostMemorySystem(entry->name, make_dram(), std::move(device),
                                pcie);
    }
    return HostMemorySystem(entry->name, std::move(device), nullptr, pcie);
}

} // namespace helm::mem
