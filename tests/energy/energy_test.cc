/**
 * @file
 * Unit tests for the system energy model.
 */
#include <gtest/gtest.h>

#include "energy/energy_model.h"
#include "model/opt.h"

namespace helm::energy {
namespace {

using model::OptVariant;

runtime::RunResult
run(mem::ConfigKind memory, placement::PlacementKind placement =
                                placement::PlacementKind::kHelm)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = memory;
    spec.placement = placement;
    spec.compress_weights = true;
    spec.batch = 1;
    spec.repeats = 2;
    auto result = runtime::simulate_inference(spec);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return std::move(result).value();
}

TEST(Energy, RequiresRecords)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.keep_records = false;
    spec.repeats = 1;
    const auto result = runtime::simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    const auto energy =
        estimate_energy(*result, mem::ConfigKind::kNvdram,
                        gpu::GpuSpec::a100_40gb());
    EXPECT_EQ(energy.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Energy, BreakdownSumsAndPositivity)
{
    const auto result = run(mem::ConfigKind::kNvdram);
    const auto energy = estimate_energy(
        *&result, mem::ConfigKind::kNvdram, gpu::GpuSpec::a100_40gb());
    ASSERT_TRUE(energy.is_ok());
    EXPECT_GT(energy->gpu_joules, 0.0);
    EXPECT_GT(energy->host_dynamic_joules, 0.0);
    EXPECT_GT(energy->host_static_joules, 0.0);
    EXPECT_GT(energy->pcie_joules, 0.0);
    EXPECT_GT(energy->cpu_joules, 0.0);
    EXPECT_NEAR(energy->total_joules(),
                energy->gpu_joules + energy->host_dynamic_joules +
                    energy->host_static_joules + energy->pcie_joules +
                    energy->cpu_joules,
                1e-9);
    EXPECT_GT(energy->joules_per_token(), 0.0);
    EXPECT_NEAR(energy->average_watts(),
                energy->total_joules() / energy->duration, 1e-9);
}

TEST(Energy, OptaneStandbyBelowDram)
{
    // The substitution argument: 1 TiB of Optane idles below 256 GiB of
    // DRAM (no refresh), 4x the capacity.
    EXPECT_LT(DevicePowerModel::optane_1t().static_watts,
              DevicePowerModel::ddr4_256g().static_watts);
}

TEST(Energy, OptaneDynamicAboveDram)
{
    EXPECT_GT(DevicePowerModel::optane_1t().read_pj_per_byte,
              DevicePowerModel::ddr4_256g().read_pj_per_byte);
    EXPECT_GT(DevicePowerModel::optane_1t().write_pj_per_byte,
              DevicePowerModel::optane_1t().read_pj_per_byte);
}

TEST(Energy, HostPowerModelCoversEveryConfig)
{
    const auto expect_model = [](const mem::HostSpec &host,
                                 const DevicePowerModel &want) {
        const auto m = host_power_model(host);
        ASSERT_TRUE(m.is_ok()) << host.name() << ": "
                               << m.status().to_string();
        EXPECT_EQ(m->static_watts, want.static_watts) << host.name();
        EXPECT_EQ(m->read_pj_per_byte, want.read_pj_per_byte)
            << host.name();
        EXPECT_EQ(m->write_pj_per_byte, want.write_pj_per_byte)
            << host.name();
    };
    // The paper rows, each read off its resolved system.
    DevicePowerModel storage = DevicePowerModel::ddr4_256g();
    storage.static_watts += DevicePowerModel::optane_1t().static_watts;
    expect_model(mem::ConfigKind::kDram, DevicePowerModel::ddr4_256g());
    expect_model(mem::ConfigKind::kNvdram, DevicePowerModel::optane_1t());
    expect_model(mem::ConfigKind::kMemoryMode,
                 DevicePowerModel::memory_mode());
    expect_model(mem::ConfigKind::kSsd, storage);
    expect_model(mem::ConfigKind::kFsdax, storage);
    expect_model(mem::ConfigKind::kCxlFpga,
                 DevicePowerModel::cxl_expander());
    expect_model(mem::ConfigKind::kCxlAsic,
                 DevicePowerModel::cxl_expander());
    for (auto kind : mem::all_config_kinds())
        EXPECT_TRUE(host_power_model(kind).is_ok());
    // Memory Mode powers both tiers.
    EXPECT_GT(host_power_model(mem::ConfigKind::kMemoryMode)->static_watts,
              host_power_model(mem::ConfigKind::kNvdram)->static_watts);

    // A custom expander is a CXL expander; a device without a power
    // model fails instead of borrowing another's.
    expect_model(mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(64.0)),
                 DevicePowerModel::cxl_expander());
    for (const char *name : {"NDP-DIMM", "HBF"}) {
        const auto m = host_power_model(name);
        EXPECT_EQ(m.status().code(), StatusCode::kNotFound) << name;
        EXPECT_NE(m.status().message().find(name), std::string::npos);
    }
}

TEST(Energy, EstimateUsesTheRunsHost)
{
    // The same run priced on an HBF host has no power model to use, and
    // on a custom CXL host it is priced as an expander, not as Optane.
    const auto result = run(mem::ConfigKind::kNvdram);
    const auto gpu = gpu::GpuSpec::a100_40gb();
    EXPECT_EQ(estimate_energy(result, "HBF", gpu).status().code(),
              StatusCode::kNotFound);
    const auto cxl = estimate_energy(
        result, mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(64.0)), gpu);
    const auto fpga =
        estimate_energy(result, mem::ConfigKind::kCxlFpga, gpu);
    const auto nvdram =
        estimate_energy(result, mem::ConfigKind::kNvdram, gpu);
    ASSERT_TRUE(cxl.is_ok());
    ASSERT_TRUE(fpga.is_ok());
    ASSERT_TRUE(nvdram.is_ok());
    EXPECT_EQ(cxl->total_joules(), fpga->total_joules());
    EXPECT_NE(cxl->total_joules(), nvdram->total_joules());
}

TEST(Energy, FasterRunsUseFewerJoulesPerToken)
{
    // HeLM's latency win is also an energy win: same work, less static
    // burn (this is the paper's energy-efficiency thesis end to end).
    const auto base =
        run(mem::ConfigKind::kNvdram, placement::PlacementKind::kBaseline);
    const auto helm = run(mem::ConfigKind::kNvdram,
                          placement::PlacementKind::kHelm);
    const auto e_base = estimate_energy(
        base, mem::ConfigKind::kNvdram, gpu::GpuSpec::a100_40gb());
    const auto e_helm = estimate_energy(
        helm, mem::ConfigKind::kNvdram, gpu::GpuSpec::a100_40gb());
    ASSERT_TRUE(e_base.is_ok());
    ASSERT_TRUE(e_helm.is_ok());
    EXPECT_LT(e_helm->joules_per_token(), e_base->joules_per_token());
}

TEST(Energy, GpuDominatesAtHighUtilization)
{
    // Large-batch All-CPU keeps the GPU busy: its joules should dwarf
    // the host memory's.
    runtime::ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.compress_weights = true;
    spec.batch = 44;
    spec.repeats = 2;
    const auto result = runtime::simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    const auto energy = estimate_energy(
        *result, mem::ConfigKind::kNvdram, gpu::GpuSpec::a100_40gb());
    ASSERT_TRUE(energy.is_ok());
    EXPECT_GT(energy->gpu_joules, energy->host_dynamic_joules +
                                      energy->host_static_joules);
}

TEST(Energy, PlatformOverridesRespected)
{
    const auto result = run(mem::ConfigKind::kNvdram);
    PlatformPower quiet;
    quiet.gpu_busy_watts = 0.0;
    quiet.gpu_idle_watts = 0.0;
    quiet.host_cpu_watts = 0.0;
    quiet.pcie_pj_per_byte = 0.0;
    const auto energy = estimate_energy(
        result, mem::ConfigKind::kNvdram, gpu::GpuSpec::a100_40gb(),
        quiet);
    ASSERT_TRUE(energy.is_ok());
    EXPECT_DOUBLE_EQ(energy->gpu_joules, 0.0);
    EXPECT_DOUBLE_EQ(energy->pcie_joules, 0.0);
    EXPECT_DOUBLE_EQ(energy->cpu_joules, 0.0);
    EXPECT_GT(energy->host_static_joules, 0.0);
}

} // namespace
} // namespace helm::energy
