/**
 * @file
 * Unit tests for FlexGen's baseline placement (Listing 2), including the
 * paper's exact achieved-distribution results (Sec. V-A).
 */
#include <gtest/gtest.h>

#include "model/opt.h"
#include "placement/baseline.h"

namespace helm::placement {
namespace {

using model::DataType;
using model::LayerType;
using model::OptVariant;

TEST(GetChoice, FirstTierBelowCumulative)
{
    const std::array<double, 3> percents{65.0, 15.0, 20.0};
    EXPECT_EQ(get_choice_index(0.0, percents), 0u);
    EXPECT_EQ(get_choice_index(64.9, percents), 0u);
    EXPECT_EQ(get_choice_index(65.0, percents), 1u);
    EXPECT_EQ(get_choice_index(79.9, percents), 1u);
    EXPECT_EQ(get_choice_index(80.0, percents), 2u);
    EXPECT_EQ(get_choice_index(99.9, percents), 2u);
    // Values at/above 100 land on the last tier (Listing 2 line 6).
    EXPECT_EQ(get_choice_index(100.0, percents), 2u);
    EXPECT_EQ(get_choice_index(150.0, percents), 2u);
}

TEST(GetChoice, ZeroPercentTiersAreSkipped)
{
    const std::array<double, 3> percents{0.0, 80.0, 20.0};
    EXPECT_EQ(get_choice_index(0.0, percents), 1u);
    EXPECT_EQ(get_choice_index(79.9, percents), 1u);
    EXPECT_EQ(get_choice_index(80.0, percents), 2u);
}

class BaselinePlacementTest : public ::testing::Test
{
  protected:
    void
    place_175b(const Policy &policy, DataType dtype)
    {
        layers_ = model::build_layers(
            model::opt_config(OptVariant::kOpt175B), dtype);
        map_ = place_baseline(layers_, policy);
    }

    std::vector<model::LayerSpec> layers_;
    PlacementMap map_;
};

TEST_F(BaselinePlacementTest, AchievedDistributionHostConfig)
{
    // Sec. V-A: requested (0, 80, 20) achieves (0, 91.7, 8.3).
    place_175b(Policy::host_offload(), DataType::kInt4Grouped);
    const TierSplit achieved = map_.achieved();
    EXPECT_NEAR(achieved.disk, 0.0, 0.01);
    EXPECT_NEAR(achieved.cpu, 91.7, 0.6);
    EXPECT_NEAR(achieved.gpu, 8.3, 0.6);
}

TEST_F(BaselinePlacementTest, AchievedDistributionStorageConfig)
{
    // Sec. V-A: requested (65, 15, 20) achieves (58.6, 33.1, 8.3).
    place_175b(Policy::disk_offload(), DataType::kInt4Grouped);
    const TierSplit achieved = map_.achieved();
    EXPECT_NEAR(achieved.disk, 58.6, 1.0);
    EXPECT_NEAR(achieved.cpu, 33.1, 1.0);
    EXPECT_NEAR(achieved.gpu, 8.3, 0.6);
}

TEST_F(BaselinePlacementTest, FfnGetsNoGpuAllocation)
{
    // Figs. 7b/7c: "the larger FFN layer gets no allocation on the GPU
    // while the smaller MHA layer does".
    place_175b(Policy::host_offload(), DataType::kInt4Grouped);
    const TierSplit ffn = map_.split_for_type(LayerType::kFfn);
    const TierSplit mha = map_.split_for_type(LayerType::kMha);
    EXPECT_NEAR(ffn.gpu, 0.0, 0.1);
    EXPECT_GT(mha.gpu, 20.0);
    EXPECT_NEAR(mha.gpu, 25.0, 1.0); // out_proj + metadata land on GPU
}

TEST_F(BaselinePlacementTest, StorageConfigSplitsPerLayerType)
{
    place_175b(Policy::disk_offload(), DataType::kInt4Grouped);
    const TierSplit mha = map_.split_for_type(LayerType::kMha);
    const TierSplit ffn = map_.split_for_type(LayerType::kFfn);
    // Fig. 7b: MHA ~75% disk + ~25% GPU; FFN ~50/50 disk/cpu.
    EXPECT_NEAR(mha.disk, 75.0, 1.0);
    EXPECT_NEAR(mha.gpu, 25.0, 1.0);
    EXPECT_NEAR(ffn.disk, 50.0, 1.0);
    EXPECT_NEAR(ffn.cpu, 50.0, 1.0);
    EXPECT_NEAR(ffn.gpu, 0.0, 0.1);
}

TEST_F(BaselinePlacementTest, SawtoothTransferPattern)
{
    // Fig. 7a: alternating MHA (dip) / FFN (ridge) off-GPU bytes.
    place_175b(Policy::host_offload(), DataType::kInt4Grouped);
    for (std::size_t i = 1; i + 2 < map_.layers.size(); i += 2) {
        const Bytes mha_off = map_.layers[i].off_gpu_bytes();
        const Bytes ffn_off = map_.layers[i + 1].off_gpu_bytes();
        EXPECT_LT(mha_off, ffn_off) << "block at layer " << i;
    }
}

TEST_F(BaselinePlacementTest, EveryWeightAssignedExactlyOnce)
{
    place_175b(Policy::host_offload(), DataType::kFp16);
    ASSERT_EQ(map_.layers.size(), layers_.size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        EXPECT_EQ(map_.layers[i].weight_tiers.size(),
                  layers_[i].weights.size());
        EXPECT_EQ(map_.layers[i].total_bytes(),
                  layers_[i].weight_bytes());
    }
}

TEST_F(BaselinePlacementTest, AchievedSplitSumsTo100)
{
    place_175b(Policy::disk_offload(), DataType::kFp16);
    const TierSplit s = map_.achieved();
    EXPECT_NEAR(s.gpu + s.cpu + s.disk, 100.0, 1e-6);
}

TEST(BaselinePlacement, AllGpuPolicyPutsEverythingOnGpu)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt1_3B));
    const Policy policy{0.0, 0.0, 100.0, false};
    const PlacementMap map = place_baseline(layers, policy);
    EXPECT_NEAR(map.achieved().gpu, 100.0, 1e-9);
    EXPECT_EQ(map.tier_total(Tier::kCpu), 0u);
}

TEST(BaselinePlacement, AllDiskPolicy)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt1_3B));
    const Policy policy{100.0, 0.0, 0.0, false};
    const PlacementMap map = place_baseline(layers, policy);
    EXPECT_NEAR(map.achieved().disk, 100.0, 1e-9);
}

TEST(BaselinePlacement, NameAndFactory)
{
    EXPECT_STREQ(placement_kind_name(PlacementKind::kBaseline),
                 "Baseline");
    const auto parsed = parse_placement_kind("baseline");
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(*parsed, PlacementKind::kBaseline);
}

TEST(BaselinePlacement, DistributionIndependentOfCompression)
{
    // Quantization scales matrices uniformly, so the achieved split of
    // decoder layers barely moves.
    const auto config = model::opt_config(OptVariant::kOpt30B);
    const auto fp16 = model::build_layers(config, DataType::kFp16);
    const auto int4 =
        model::build_layers(config, DataType::kInt4Grouped);
    const TierSplit a =
        place_baseline(fp16, Policy::host_offload()).achieved();
    const TierSplit b =
        place_baseline(int4, Policy::host_offload()).achieved();
    EXPECT_NEAR(a.gpu, b.gpu, 1.5);
    EXPECT_NEAR(a.cpu, b.cpu, 1.5);
}

} // namespace
} // namespace helm::placement
