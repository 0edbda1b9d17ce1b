/**
 * @file
 * Unit tests for the per-layer GPU-vs-NDP compute-site decision.
 */
#include <gtest/gtest.h>

#include "placement/ndp_aware.h"

namespace helm::placement {
namespace {

NdpProfile
test_profile()
{
    NdpProfile profile;
    profile.h2d_bandwidth = Bandwidth::gb_per_s(20.0);
    profile.gemv_rate = Bandwidth::gb_per_s(64.0);
    profile.gemv_flops = 2e12;
    profile.command_latency = 5e-6;
    return profile;
}

/** Fully host-resident FFN layer: bandwidth-bound by construction. */
LayerSiteWork
offloadable_ffn()
{
    LayerSiteWork layer;
    layer.type = model::LayerType::kFfn;
    layer.host_bytes = 2ull * kGiB;
    layer.total_bytes = 2ull * kGiB;
    layer.stream_bytes = 2ull * kGiB;
    layer.flops = 4e9; // intensity ~2 flop/byte: deeply bandwidth-bound
    layer.gpu_compute = 1e-4;
    return layer;
}

TEST(NdpAware, ExecutionTimeIsMaxOfStreamAndCompute)
{
    const NdpProfile profile = test_profile();
    // Bandwidth-bound: 64 GiB at 64 GB/s is ~1.07 s >> compute.
    const Bytes bytes = 64ull * kGiB;
    EXPECT_NEAR(ndp_execution_time(profile, bytes, 1.0),
                static_cast<double>(bytes) / profile.gemv_rate.raw(),
                1e-12);
    // Compute-bound: 2e13 FLOPs at 2 TFLOPS is 10 s >> streaming.
    EXPECT_NEAR(ndp_execution_time(profile, 1, 2e13), 10.0, 1e-9);
}

TEST(NdpAware, GpuOnlyModeShortCircuits)
{
    const std::vector<SiteDecision> decisions = assign_compute_sites(
        {offloadable_ffn()}, test_profile(),
        ComputeSiteMode::kGpuOnly);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].site, ComputeSite::kGpu);
    // Short-circuit: no estimates computed on the default path.
    EXPECT_EQ(decisions[0].ndp_time, 0.0);
}

TEST(NdpAware, BandwidthBoundFfnOffloadsUnderAuto)
{
    const std::vector<SiteDecision> decisions = assign_compute_sites(
        {offloadable_ffn()}, test_profile(), ComputeSiteMode::kNdpAuto);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].site, ComputeSite::kNdp);
    // The verdict's own numbers must justify it.
    EXPECT_LT(decisions[0].ndp_time, decisions[0].gpu_time);
    EXPECT_GT(decisions[0].arithmetic_intensity, 0.0);
}

TEST(NdpAware, ComputeBoundFfnStaysOnTheGpu)
{
    LayerSiteWork layer = offloadable_ffn();
    // Crank the arithmetic intensity: the GPU's FLOP advantage wins.
    layer.flops = 1e15;
    layer.gpu_compute = 1e-3;
    const std::vector<SiteDecision> decisions = assign_compute_sites(
        {layer}, test_profile(), ComputeSiteMode::kNdpAuto);
    EXPECT_EQ(decisions[0].site, ComputeSite::kGpu);
    EXPECT_GT(decisions[0].ndp_time, decisions[0].gpu_time);
}

TEST(NdpAware, MhaNeverOffloadsEvenWhenForced)
{
    LayerSiteWork layer = offloadable_ffn();
    layer.type = model::LayerType::kMha;
    const std::vector<SiteDecision> decisions = assign_compute_sites(
        {layer}, test_profile(), ComputeSiteMode::kNdpAll);
    EXPECT_EQ(decisions[0].site, ComputeSite::kGpu);
}

TEST(NdpAware, PartiallyResidentFfnIsIneligible)
{
    // A layer split across tiers still pays the h2d for its GPU share,
    // so only fully host-resident layers may offload.
    LayerSiteWork layer = offloadable_ffn();
    layer.host_bytes = layer.total_bytes / 2;
    const std::vector<SiteDecision> decisions = assign_compute_sites(
        {layer}, test_profile(), ComputeSiteMode::kNdpAll);
    EXPECT_EQ(decisions[0].site, ComputeSite::kGpu);

    layer.host_bytes = 0;
    EXPECT_EQ(assign_compute_sites({layer}, test_profile(),
                                   ComputeSiteMode::kNdpAll)[0]
                  .site,
              ComputeSite::kGpu);
}

TEST(NdpAware, NdpAllForcesEligibleLayersRegardlessOfEconomics)
{
    LayerSiteWork layer = offloadable_ffn();
    layer.flops = 1e15; // NDP loses on time, but the mode forces it
    layer.gpu_compute = 1e-3;
    const std::vector<SiteDecision> decisions = assign_compute_sites(
        {layer}, test_profile(), ComputeSiteMode::kNdpAll);
    EXPECT_EQ(decisions[0].site, ComputeSite::kNdp);
}

TEST(NdpAware, MixedStackDecidesPerLayer)
{
    LayerSiteWork mha = offloadable_ffn();
    mha.type = model::LayerType::kMha;
    LayerSiteWork hot = offloadable_ffn();
    hot.flops = 1e15;
    hot.gpu_compute = 1e-3;
    const std::vector<SiteDecision> decisions = assign_compute_sites(
        {mha, offloadable_ffn(), hot}, test_profile(),
        ComputeSiteMode::kNdpAuto);
    ASSERT_EQ(decisions.size(), 3u);
    EXPECT_EQ(decisions[0].site, ComputeSite::kGpu);
    EXPECT_EQ(decisions[1].site, ComputeSite::kNdp);
    EXPECT_EQ(decisions[2].site, ComputeSite::kGpu);
}

TEST(NdpAware, NamesAreStable)
{
    EXPECT_STREQ(compute_site_mode_name(ComputeSiteMode::kGpuOnly),
                 "gpu");
    EXPECT_STREQ(compute_site_mode_name(ComputeSiteMode::kNdpAuto),
                 "auto");
    EXPECT_STREQ(compute_site_mode_name(ComputeSiteMode::kNdpAll),
                 "ndp");
}

} // namespace
} // namespace helm::placement
