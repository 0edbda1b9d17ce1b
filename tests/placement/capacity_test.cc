/**
 * @file
 * Unit tests for GPU-capacity enforcement (weight spilling).
 */
#include <gtest/gtest.h>

#include "model/opt.h"
#include "placement/baseline.h"
#include "placement/capacity.h"
#include "placement/helm_placement.h"

namespace helm::placement {
namespace {

using model::DataType;
using model::OptVariant;

class CapacityTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        layers_ = model::build_layers(
            model::opt_config(OptVariant::kOpt13B),
            DataType::kInt4Grouped);
        map_ = place_helm(layers_, Policy::host_offload());
    }

    std::vector<model::LayerSpec> layers_;
    PlacementMap map_;
};

TEST_F(CapacityTest, NoOpWhenUnderBudget)
{
    const Bytes gpu_before = map_.tier_total(Tier::kGpu);
    const SpillReport report =
        enforce_gpu_capacity(map_, layers_, gpu_before + kGiB);
    EXPECT_TRUE(report.fits);
    EXPECT_FALSE(report.spilled());
    EXPECT_EQ(report.spilled_weights, 0u);
    EXPECT_EQ(map_.tier_total(Tier::kGpu), gpu_before);
}

TEST_F(CapacityTest, SpillsDownToBudget)
{
    const Bytes gpu_before = map_.tier_total(Tier::kGpu);
    const Bytes budget = gpu_before / 2;
    const SpillReport report =
        enforce_gpu_capacity(map_, layers_, budget);
    EXPECT_TRUE(report.fits);
    EXPECT_TRUE(report.spilled());
    EXPECT_LE(map_.tier_total(Tier::kGpu), budget);
    EXPECT_EQ(report.gpu_weight_bytes_before, gpu_before);
    EXPECT_EQ(report.gpu_weight_bytes_after,
              map_.tier_total(Tier::kGpu));
    EXPECT_EQ(report.spilled_bytes,
              gpu_before - report.gpu_weight_bytes_after);
}

TEST_F(CapacityTest, SpilledBytesMoveToCpuTier)
{
    const Bytes cpu_before = map_.tier_total(Tier::kCpu);
    const Bytes gpu_before = map_.tier_total(Tier::kGpu);
    enforce_gpu_capacity(map_, layers_, gpu_before / 2);
    // Conservation: total bytes unchanged, spill lands on the CPU tier.
    EXPECT_EQ(map_.tier_total(Tier::kCpu) + map_.tier_total(Tier::kGpu) +
                  map_.tier_total(Tier::kDisk),
              cpu_before + gpu_before);
    EXPECT_GT(map_.tier_total(Tier::kCpu), cpu_before);
}

TEST_F(CapacityTest, LargestWeightsSpillFirst)
{
    // With a budget just below the current GPU share, only big matrices
    // (fc1) should move; HeLM's bias/norm anchors must stay resident.
    const Bytes gpu_before = map_.tier_total(Tier::kGpu);
    enforce_gpu_capacity(map_, layers_, gpu_before * 9 / 10);
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        for (std::size_t wi = 0; wi < layers_[li].weights.size(); ++wi) {
            const auto &w = layers_[li].weights[wi];
            if (!model::is_matrix_role(w.role) &&
                layers_[li].type != model::LayerType::kInputEmbedding &&
                layers_[li].type != model::LayerType::kOutputEmbedding) {
                EXPECT_EQ(map_.layers[li].weight_tiers[wi], Tier::kGpu)
                    << "layer " << li << " "
                    << model::weight_role_name(w.role);
            }
        }
    }
}

TEST_F(CapacityTest, ZeroBudgetEvictsEverything)
{
    const SpillReport report = enforce_gpu_capacity(map_, layers_, 0);
    EXPECT_TRUE(report.fits);
    EXPECT_EQ(map_.tier_total(Tier::kGpu), 0u);
}

TEST_F(CapacityTest, IdempotentOnSecondCall)
{
    const Bytes budget = map_.tier_total(Tier::kGpu) / 3;
    enforce_gpu_capacity(map_, layers_, budget);
    const Bytes after_first = map_.tier_total(Tier::kGpu);
    const SpillReport second =
        enforce_gpu_capacity(map_, layers_, budget);
    EXPECT_FALSE(second.spilled());
    EXPECT_EQ(map_.tier_total(Tier::kGpu), after_first);
}

TEST(Capacity, BaselinePlacementSpillsToo)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt6_7B));
    PlacementMap map = place_baseline(layers, Policy{0.0, 20.0, 80.0, false});
    const Bytes before = map.tier_total(Tier::kGpu);
    ASSERT_GT(before, 2 * kGiB);
    const SpillReport report =
        enforce_gpu_capacity(map, layers, 2 * kGiB);
    EXPECT_TRUE(report.fits);
    EXPECT_LE(map.tier_total(Tier::kGpu), 2 * kGiB);
    EXPECT_EQ(report.spilled_bytes + map.tier_total(Tier::kGpu), before);
}

} // namespace
} // namespace helm::placement
