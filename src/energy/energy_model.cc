#include "energy/energy_model.h"

namespace helm::energy {

DevicePowerModel
DevicePowerModel::ddr4_256g()
{
    DevicePowerModel m;
    // 16 RDIMMs x ~1 W standby (refresh + register/PLL).
    m.static_watts = 16.0;
    m.read_pj_per_byte = 150.0;
    m.write_pj_per_byte = 170.0;
    return m;
}

DevicePowerModel
DevicePowerModel::optane_1t()
{
    DevicePowerModel m;
    // 8 x 128 GiB DCPMMs at ~1.3 W idle: persistence means no refresh.
    m.static_watts = 10.4;
    // 3D-XPoint media reads ~2x DRAM energy, writes ~6x (write-in-place
    // phase change).
    m.read_pj_per_byte = 300.0;
    m.write_pj_per_byte = 900.0;
    return m;
}

DevicePowerModel
DevicePowerModel::memory_mode()
{
    // Optane backing plus the full DRAM cache kept powered.
    DevicePowerModel m = optane_1t();
    m.static_watts += ddr4_256g().static_watts;
    // Hits are DRAM-priced; misses Optane-priced.  Approximate with a
    // cache-favoring mix (the planner keeps hit ratios high).
    m.read_pj_per_byte = 0.7 * ddr4_256g().read_pj_per_byte +
                         0.3 * optane_1t().read_pj_per_byte;
    m.write_pj_per_byte = 0.7 * ddr4_256g().write_pj_per_byte +
                          0.3 * optane_1t().write_pj_per_byte;
    return m;
}

DevicePowerModel
DevicePowerModel::cxl_expander()
{
    DevicePowerModel m;
    // Single-channel DIMM + CXL controller ASIC/FPGA.
    m.static_watts = 8.0;
    // CXL transfers are more energy-efficient per bit than DDR pins
    // (Sec. II-D), but the expander adds controller overhead.
    m.read_pj_per_byte = 180.0;
    m.write_pj_per_byte = 210.0;
    return m;
}

Result<DevicePowerModel>
host_power_model(const mem::HostSpec &host)
{
    const auto system = mem::make_system(host);
    if (!system.is_ok())
        return system.status();
    if (system->has_storage()) {
        // Every storage-tier entry is Optane behind a DRAM host tier
        // (Table II SSD/FSDAX): DRAM power plus Optane standby.
        DevicePowerModel m = DevicePowerModel::ddr4_256g();
        m.static_watts += DevicePowerModel::optane_1t().static_watts;
        return m;
    }
    switch (system->host()->kind()) {
      case mem::MemoryKind::kDram:
        return DevicePowerModel::ddr4_256g();
      case mem::MemoryKind::kOptane:
        return DevicePowerModel::optane_1t();
      case mem::MemoryKind::kMemoryMode:
        return DevicePowerModel::memory_mode();
      case mem::MemoryKind::kCxl:
        return DevicePowerModel::cxl_expander();
      case mem::MemoryKind::kSsd:
      case mem::MemoryKind::kFsdax:
      case mem::MemoryKind::kNdpDimm:
      case mem::MemoryKind::kHbf:
        break;
    }
    return Status::not_found("no power model for host memory '" +
                             system->label() + "'");
}

Result<EnergyBreakdown>
estimate_energy(const runtime::RunResult &result,
                const mem::HostSpec &memory, const gpu::GpuSpec &gpu,
                const PlatformPower &platform)
{
    if (result.records.empty()) {
        return Status::failed_precondition(
            "energy estimation needs per-step records "
            "(run with keep_records = true)");
    }

    const auto host = host_power_model(memory);
    if (!host.is_ok())
        return host.status();

    EnergyBreakdown e;
    e.duration = result.metrics.total_time;
    e.tokens = result.metrics.total_tokens;

    Seconds gpu_busy = 0.0;
    Bytes host_reads = 0;
    Bytes host_writes = 0;
    for (const auto &rec : result.records) {
        gpu_busy += rec.compute_time + gpu.layer_overhead;
        host_reads += rec.transfer_bytes + rec.kv_read_bytes;
        host_writes += rec.kv_write_bytes;
    }
    const Seconds gpu_idle =
        e.duration > gpu_busy ? e.duration - gpu_busy : 0.0;

    e.gpu_joules = gpu_busy * platform.gpu_busy_watts +
                   gpu_idle * platform.gpu_idle_watts;

    e.host_static_joules = host->static_watts * e.duration;
    e.host_dynamic_joules =
        (static_cast<double>(host_reads) * host->read_pj_per_byte +
         static_cast<double>(host_writes) * host->write_pj_per_byte) *
        1e-12;
    e.pcie_joules = static_cast<double>(host_reads + host_writes) *
                    platform.pcie_pj_per_byte * 1e-12;
    e.cpu_joules = platform.host_cpu_watts * e.duration;
    return e;
}

} // namespace helm::energy
