/**
 * @file
 * System energy model for out-of-core serving runs.
 *
 * The paper's closing argument is that careful placement lets
 * high-capacity-but-slow memory replace DRAM "improving overall system
 * energy efficiency" (Abstract).  This module makes that claim
 * computable: given a finished run, it integrates GPU busy/idle power,
 * per-byte transfer energy, and each memory technology's static
 * (refresh/standby) power into joules per generated token.
 *
 * Constants are literature-derived and kept in one place
 * (DevicePowerModel presets) so they can be re-pinned; sources noted
 * per value.
 */
#ifndef HELM_ENERGY_ENERGY_MODEL_H
#define HELM_ENERGY_ENERGY_MODEL_H

#include "common/units.h"
#include "gpu/gpu.h"
#include "mem/registry.h"
#include "runtime/engine.h"

namespace helm::energy {

/** Power/energy description of one memory technology. */
struct DevicePowerModel
{
    double static_watts = 0.0;      //!< background (refresh/standby)
    double read_pj_per_byte = 0.0;  //!< dynamic read energy
    double write_pj_per_byte = 0.0; //!< dynamic write energy

    /** 256 GiB of DDR4 RDIMMs: ~4 W/64 GiB standby (refresh + PLL),
     *  ~150 pJ/B reads (~19 pJ/bit incl. I/O), writes slightly higher. */
    static DevicePowerModel ddr4_256g();

    /** 1 TiB of Optane DCPMM: far lower standby per byte (no refresh;
     *  ~1.3 W/128 GiB module idle), but ~2x DRAM read energy and ~6x
     *  write energy (3D-XPoint media costs; Izraelevitz et al.). */
    static DevicePowerModel optane_1t();

    /** Memory Mode: Optane backing plus the DRAM cache's refresh. */
    static DevicePowerModel memory_mode();

    /** CXL expander: single-channel DRAM + controller (~6 W). */
    static DevicePowerModel cxl_expander();
};

/** Platform-level power constants. */
struct PlatformPower
{
    double gpu_busy_watts = 400.0; //!< A100 SXM/PCIe board power, busy
    double gpu_idle_watts = 55.0;  //!< A100 idle board power
    double host_cpu_watts = 90.0;  //!< orchestration share of the CPU
    double pcie_pj_per_byte = 62.5; //!< ~5 pJ/bit link + PHY energy

    static PlatformPower defaults() { return PlatformPower{}; }
};

/** Itemized energy of one serving run. */
struct EnergyBreakdown
{
    double gpu_joules = 0.0;         //!< busy + idle integral
    double host_dynamic_joules = 0.0;//!< reads/writes of host memory
    double host_static_joules = 0.0; //!< refresh/standby over the run
    double pcie_joules = 0.0;        //!< link transfer energy
    double cpu_joules = 0.0;         //!< host orchestration
    Seconds duration = 0.0;
    std::uint64_t tokens = 0;

    double
    total_joules() const
    {
        return gpu_joules + host_dynamic_joules + host_static_joules +
               pcie_joules + cpu_joules;
    }

    double
    joules_per_token() const
    {
        return tokens > 0 ? total_joules() / static_cast<double>(tokens)
                          : 0.0;
    }

    double
    average_watts() const
    {
        return duration > 0.0 ? total_joules() / duration : 0.0;
    }
};

/**
 * Power model of a host, read off its resolved system: the six paper
 * rows plus custom CXL expanders (cxl_expander()).  kNotFound for a
 * device with no power model (NDP-DIMM, HBF) or an unknown name.
 */
Result<DevicePowerModel> host_power_model(const mem::HostSpec &host);

/**
 * Estimate the energy of a finished run.
 *
 * @param result Must have been produced with keep_records = true (the
 *               byte and busy-time accounting comes from the records).
 * @param memory The run's host (selects the host power model; fails for
 *               a host without one).
 * @param gpu The run's GPU spec.
 * @param platform Platform constants; defaults match the paper's node.
 */
Result<EnergyBreakdown>
estimate_energy(const runtime::RunResult &result,
                const mem::HostSpec &memory,
                const gpu::GpuSpec &gpu,
                const PlatformPower &platform = PlatformPower::defaults());

} // namespace helm::energy

#endif // HELM_ENERGY_ENERGY_MODEL_H
