/**
 * @file
 * Unit tests for the profile-guided Balanced placement.
 */
#include <gtest/gtest.h>

#include "model/opt.h"
#include "placement/balanced.h"
#include "runtime/engine.h"

namespace helm::placement {
namespace {

using model::DataType;
using model::OptVariant;

class BalancedTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        layers_ = model::build_layers(
            model::opt_config(OptVariant::kOpt13B),
            DataType::kInt4Grouped);
    }

    BalanceProfile
    uniform_profile(Seconds window, Bandwidth bw, Bytes budget) const
    {
        BalanceProfile profile;
        profile.compute_times.assign(layers_.size(), window);
        profile.transfer_bandwidth = bw;
        profile.gpu_weight_budget = budget;
        return profile;
    }

    std::vector<model::LayerSpec> layers_;
};

TEST_F(BalancedTest, ProfileSizeMismatchAsserts)
{
    BalanceProfile profile =
        uniform_profile(1e-3, Bandwidth::gb_per_s(20.0), 1 * kGiB);
    profile.compute_times.pop_back();
    EXPECT_DEATH(place_balanced(layers_, profile),
                 "profile must cover every layer");
}

TEST_F(BalancedTest, EveryLayerMeetsItsWindowWhenBudgetAmple)
{
    const Bandwidth bw = Bandwidth::gb_per_s(20.0);
    const Seconds window = 5e-3; // 100 MB per window at 20 GB/s
    const auto map =
        place_balanced(layers_, uniform_profile(window, bw, 1000 * kGiB));
    // No residual stall: each layer's off-GPU bytes stream in its window.
    const double allowed = window * bw.raw();
    for (const auto &layer : map.layers) {
        EXPECT_LE(static_cast<double>(layer.off_gpu_bytes()),
                  allowed + 1.0)
            << "layer " << layer.layer_index;
    }
}

TEST_F(BalancedTest, HugeWindowsPinNothing)
{
    const auto map = place_balanced(
        layers_,
        uniform_profile(10.0, Bandwidth::gb_per_s(20.0), 1000 * kGiB));
    EXPECT_EQ(map.tier_total(Tier::kGpu), 0u);
}

TEST_F(BalancedTest, ZeroWindowsPinEverythingWithinBudget)
{
    // Zero compute windows demand everything on GPU; with an ample
    // budget that is exactly what should happen.
    const auto map = place_balanced(
        layers_,
        uniform_profile(0.0, Bandwidth::gb_per_s(20.0), 1000 * kGiB));
    EXPECT_EQ(map.tier_total(Tier::kCpu), 0u);
    EXPECT_EQ(map.tier_total(Tier::kGpu),
              model::model_weight_bytes(layers_));
}

TEST_F(BalancedTest, TightBudgetRespectedWithResidualStall)
{
    const Bytes budget = 1 * kGiB; // far below the perfect-balance need
    const Bandwidth bw = Bandwidth::gb_per_s(20.0);
    const Seconds window = 1e-4;
    const auto map =
        place_balanced(layers_, uniform_profile(window, bw, budget));
    EXPECT_LE(map.tier_total(Tier::kGpu), budget);
    EXPECT_GT(map.tier_total(Tier::kGpu), budget / 2); // budget used
    // A stall remains: some layer streams more than its window hides.
    bool stalled = false;
    for (const auto &layer : map.layers) {
        stalled |= static_cast<double>(layer.off_gpu_bytes()) >
                   window * bw.raw();
    }
    EXPECT_TRUE(stalled);
}

TEST_F(BalancedTest, BudgetSpentWhereStallsAreWorst)
{
    // Give the FFN layers (index 2, 4, ...) tight windows and the MHA
    // layers loose ones: the budget must flow to FFN tensors first.
    BalanceProfile profile;
    profile.compute_times.assign(layers_.size(), 1.0); // loose default
    for (std::size_t j = 1; j + 1 < layers_.size(); j += 2)
        profile.compute_times[j] = 0.0; // layer j+1 (FFN) gets no window
    profile.transfer_bandwidth = Bandwidth::gb_per_s(20.0);
    profile.gpu_weight_budget = 4 * kGiB;
    const auto map = place_balanced(layers_, profile);
    const auto ffn = map.split_for_type(model::LayerType::kFfn);
    const auto mha = map.split_for_type(model::LayerType::kMha);
    EXPECT_GT(ffn.gpu, mha.gpu);
}

TEST_F(BalancedTest, NothingOnDisk)
{
    const auto map = place_balanced(
        layers_, uniform_profile(1e-3, Bandwidth::gb_per_s(20.0), 8 * kGiB));
    EXPECT_EQ(map.tier_total(Tier::kDisk), 0u);
}

TEST(BalancedEngine, RunsEndToEnd)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = PlacementKind::kBalanced;
    spec.compress_weights = true;
    spec.batch = 1;
    spec.repeats = 2;
    const auto result = runtime::simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_GT(result->placement.tier_total(Tier::kGpu), 0u);
    EXPECT_GT(result->metrics.throughput, 0.0);
}

TEST(BalancedEngine, MatchesOrBeatsHelmOnDecodeLatency)
{
    // Balanced solves the objective HeLM approximates, so it must not
    // lose to HeLM's fixed percentages (small slack for the bisection
    // granularity and the profile's context approximation).
    runtime::ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.compress_weights = true;
    spec.batch = 1;
    spec.repeats = 2;
    spec.keep_records = false;

    spec.placement = PlacementKind::kHelm;
    const auto helm_run = runtime::simulate_inference(spec);
    spec.placement = PlacementKind::kBalanced;
    const auto balanced = runtime::simulate_inference(spec);
    ASSERT_TRUE(helm_run.is_ok());
    ASSERT_TRUE(balanced.is_ok());
    EXPECT_LE(balanced->metrics.tbt, helm_run->metrics.tbt * 1.02);
}

TEST(BalancedEngine, BeatsBaselineClearly)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.compress_weights = true;
    spec.batch = 1;
    spec.repeats = 2;
    spec.keep_records = false;

    spec.placement = PlacementKind::kBaseline;
    const auto baseline = runtime::simulate_inference(spec);
    spec.placement = PlacementKind::kBalanced;
    const auto balanced = runtime::simulate_inference(spec);
    ASSERT_TRUE(baseline.is_ok());
    ASSERT_TRUE(balanced.is_ok());
    EXPECT_LT(balanced->metrics.tbt, baseline->metrics.tbt * 0.85);
}

TEST(BalancedEngine, KindNameRegistered)
{
    EXPECT_STREQ(placement_kind_name(PlacementKind::kBalanced),
                 "Balanced");
}

} // namespace
} // namespace helm::placement
