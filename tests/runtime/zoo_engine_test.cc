/**
 * @file
 * Engine tests for the backend-zoo seam: the default spec must stay
 * byte-identical to the pre-zoo path (no NDP steps, identical metrics
 * whichever way a paper row is named), near-data decode offload must
 * engage only when asked for, the compute-site validation must fail
 * fast on non-NDP devices, and every engine-side host consumer must
 * read the host the spec names.
 */
#include <gtest/gtest.h>

#include <cctype>

#include "model/opt.h"
#include "runtime/engine.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

ServingSpec
base_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt6_7B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.compress_weights = true;
    spec.batch = 4;
    spec.repeats = 2;
    spec.keep_records = false;
    return spec;
}

TEST(ZooEngine, DefaultSpecSchedulesNoNdpWork)
{
    // The gating contract: a spec that never mentions the zoo must not
    // touch the NDP resource at all — zero offloaded steps, zero bytes
    // kept off the h2d fabric.
    const auto result = simulate_inference(base_spec());
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result->ndp_steps, 0u);
    EXPECT_EQ(result->ndp_bytes, 0u);
}

TEST(ZooEngine, NvdramRegistryEntryMatchesLegacyConfigExactly)
{
    // The registry's NVDRAM entry and the legacy ConfigKind path must
    // produce the same simulation to the last bit — this is the anchor
    // that keeps the zoo honest against the paper's tables.
    const ServingSpec legacy = base_spec();
    ServingSpec zoo = base_spec();
    zoo.memory = "NVDRAM";

    const auto a = simulate_inference(legacy);
    const auto b = simulate_inference(zoo);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(a->metrics.ttft, b->metrics.ttft);
    EXPECT_EQ(a->metrics.tbt, b->metrics.tbt);
    EXPECT_EQ(a->metrics.throughput, b->metrics.throughput);
    EXPECT_EQ(a->model_bytes, b->model_bytes);
    EXPECT_EQ(b->ndp_steps, 0u);
}

TEST(ZooEngine, EveryConfigKindMatchesItsRegistryName)
{
    // Each paper row, named by its ConfigKind and by its registry name
    // in another case, resolves to the same device and runs to the
    // same bits.
    for (mem::ConfigKind kind : mem::all_config_kinds()) {
        std::string lower = mem::config_kind_name(kind);
        for (char &c : lower)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        ServingSpec by_kind = base_spec();
        by_kind.placement = placement::PlacementKind::kBaseline;
        by_kind.memory = kind;
        ServingSpec by_name = by_kind;
        by_name.memory = lower;

        const auto a = simulate_inference(by_kind);
        const auto b = simulate_inference(by_name);
        ASSERT_TRUE(a.is_ok()) << lower << ": " << a.status().to_string();
        ASSERT_TRUE(b.is_ok()) << lower << ": " << b.status().to_string();
        EXPECT_EQ(a->metrics.ttft, b->metrics.ttft) << lower;
        EXPECT_EQ(a->metrics.tbt, b->metrics.tbt) << lower;
        EXPECT_EQ(a->metrics.throughput, b->metrics.throughput) << lower;
        EXPECT_EQ(a->placement.tier_total(placement::Tier::kDisk),
                  b->placement.tier_total(placement::Tier::kDisk))
            << lower;
    }
}

TEST(ZooEngine, NdpAutoOffloadsDecodeAndWins)
{
    ServingSpec gpu_path = base_spec();
    gpu_path.memory = "NDP-DIMM";

    ServingSpec ndp_path = gpu_path;
    ndp_path.compute_site = placement::ComputeSiteMode::kNdpAuto;

    const auto gpu_run = simulate_inference(gpu_path);
    const auto ndp_run = simulate_inference(ndp_path);
    ASSERT_TRUE(gpu_run.is_ok());
    ASSERT_TRUE(ndp_run.is_ok());

    // All-CPU decode is h2d-bound, so the auto policy must offload the
    // FFN layers and beat the GPU path on decode latency.
    EXPECT_EQ(gpu_run->ndp_steps, 0u);
    EXPECT_GT(ndp_run->ndp_steps, 0u);
    EXPECT_GT(ndp_run->ndp_bytes, 0u);
    EXPECT_LT(ndp_run->metrics.tbt, gpu_run->metrics.tbt);
}

TEST(ZooEngine, NdpOffloadIsDecodeOnly)
{
    // Prefill GEMMs are compute-bound and would crawl on the GEMV
    // units, so only decode steps offload: the bytes kept off the h2d
    // fabric must be bounded by decode-step count x FFN host bytes, and
    // TTFT (prefill-dominated) must not regress versus the GPU path.
    ServingSpec gpu_path = base_spec();
    gpu_path.memory = "NDP-DIMM";
    ServingSpec ndp_path = gpu_path;
    ndp_path.compute_site = placement::ComputeSiteMode::kNdpAuto;

    const auto gpu_run = simulate_inference(gpu_path);
    const auto ndp_run = simulate_inference(ndp_path);
    ASSERT_TRUE(gpu_run.is_ok());
    ASSERT_TRUE(ndp_run.is_ok());
    EXPECT_LE(ndp_run->metrics.ttft,
              gpu_run->metrics.ttft * (1.0 + 1e-9));
}

TEST(ZooEngine, ComputeSiteRequiresZooDevice)
{
    ServingSpec spec = base_spec();
    spec.compute_site = placement::ComputeSiteMode::kNdpAuto;
    const Status status = spec.validate();
    ASSERT_FALSE(status.is_ok());
    EXPECT_NE(status.to_string().find("NDP-capable"), std::string::npos);
}

TEST(ZooEngine, ComputeSiteRejectsDevicesWithoutNdpUnits)
{
    ServingSpec spec = base_spec();
    spec.memory = "DRAM";
    spec.compute_site = placement::ComputeSiteMode::kNdpAuto;
    const Status status = spec.validate();
    ASSERT_FALSE(status.is_ok());
    // The diagnostic names the offending pair.
    EXPECT_NE(status.to_string().find("auto"), std::string::npos);
    EXPECT_NE(status.to_string().find("DRAM"), std::string::npos);
}

TEST(ZooEngine, UnknownZooDeviceFailsFast)
{
    ServingSpec spec = base_spec();
    spec.memory = "mercury-delay-line";
    const Status status = spec.validate();
    ASSERT_FALSE(status.is_ok());
    EXPECT_NE(status.to_string().find("mercury-delay-line"),
              std::string::npos);
}

TEST(ZooEngine, StorageZooDevicePairsWithDiskPolicy)
{
    // SSD through the zoo composes a DRAM host + storage tier, so the
    // default disk_offload policy applies and the run places weight
    // bytes on disk — same shape as the legacy kSsd config.
    ServingSpec spec = base_spec();
    spec.placement = placement::PlacementKind::kBaseline;
    spec.memory = "SSD";
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    EXPECT_GT(result->placement.tier_total(placement::Tier::kDisk), 0u);
}

TEST(ZooEngine, ValidateRejectsDiskPolicyOnHostWithoutStorage)
{
    // validate() reads the resolved host: a disk share is fine on the
    // SSD entry and rejected on HBF, whose flash is the host tier.
    ServingSpec spec = base_spec();
    spec.policy = placement::Policy::disk_offload();
    spec.memory = "SSD";
    EXPECT_TRUE(spec.validate().is_ok());
    spec.memory = "HBF";
    const Status status = spec.validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("HBF"), std::string::npos);
}

TEST(ZooEngine, BalancedProbeReadsTheResolvedHost)
{
    // place_balanced sizes its GPU share from the host's transfer
    // rate, so a slow custom expander and a fast one must place
    // differently, and a named device must place as its twin custom
    // expander at the same rate (CXL-FPGA = 5.12 GB/s).
    ServingSpec spec = base_spec();
    spec.model = model::opt_config(OptVariant::kOpt30B);
    spec.placement = placement::PlacementKind::kBalanced;
    spec.batch = 1;
    const auto gpu_bytes = [&](const mem::HostSpec &host) {
        ServingSpec s = spec;
        s.memory = host;
        const auto run = simulate_inference(s);
        EXPECT_TRUE(run.is_ok()) << run.status().to_string();
        return run.is_ok() ? run->placement.tier_total(placement::Tier::kGpu)
                           : Bytes{0};
    };
    const Bytes slow =
        gpu_bytes(mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(2.0)));
    const Bytes fast =
        gpu_bytes(mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(60.0)));
    EXPECT_NE(slow, fast);
    EXPECT_EQ(gpu_bytes(mem::ConfigKind::kCxlFpga),
              gpu_bytes(mem::HostSpec::custom_cxl(
                  Bandwidth::gb_per_s(5.12))));
}

} // namespace
} // namespace helm::runtime
