/**
 * @file
 * Unit tests for HeLM (Listing 3) and All-CPU (Sec. V-C) placements.
 */
#include <gtest/gtest.h>

#include "model/opt.h"
#include "placement/baseline.h"
#include "placement/helm_placement.h"
#include "runtime/engine.h"

namespace helm::placement {
namespace {

using model::DataType;
using model::LayerType;
using model::OptVariant;
using model::WeightRole;

class HelmPlacementTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        layers_ = model::build_layers(
            model::opt_config(OptVariant::kOpt175B),
            DataType::kInt4Grouped);
        map_ = place_helm(layers_, Policy::host_offload());
    }

    const model::LayerSpec &
    layer(std::size_t i) const
    {
        return layers_[i];
    }

    Tier
    tier_of(std::size_t layer_idx, WeightRole role) const
    {
        const auto &weights = layers_[layer_idx].weights;
        for (std::size_t w = 0; w < weights.size(); ++w) {
            if (weights[w].role == role)
                return map_.layers[layer_idx].weight_tiers[w];
        }
        ADD_FAILURE() << "role not found in layer " << layer_idx;
        return Tier::kDisk;
    }

    std::vector<model::LayerSpec> layers_;
    PlacementMap map_;
};

TEST_F(HelmPlacementTest, Fc1OnGpuFc2OnHost)
{
    // Sec. V-B: "allocating the weights of the first fully connected
    // (FC) layer of FFN on the GPU"; fc2 stays on host.
    EXPECT_EQ(tier_of(2, WeightRole::kFc1), Tier::kGpu);
    EXPECT_EQ(tier_of(2, WeightRole::kFc2), Tier::kCpu);
}

TEST_F(HelmPlacementTest, BiasAndNormOnGpuForBothLayerTypes)
{
    // "along with the weights of all the bias and normalization layers
    // for both MHA and FFN".
    EXPECT_EQ(tier_of(1, WeightRole::kQBias), Tier::kGpu);
    EXPECT_EQ(tier_of(1, WeightRole::kAttnLnWeight), Tier::kGpu);
    EXPECT_EQ(tier_of(1, WeightRole::kOutBias), Tier::kGpu);
    EXPECT_EQ(tier_of(2, WeightRole::kFc1Bias), Tier::kGpu);
    EXPECT_EQ(tier_of(2, WeightRole::kFfnLnBias), Tier::kGpu);
}

TEST_F(HelmPlacementTest, MhaMatricesStayOnHost)
{
    // "The rest of the MHA and FFN weights are offloaded on to the host
    // memory" — the four h^2 projections exceed MHA's 10% GPU budget.
    EXPECT_EQ(tier_of(1, WeightRole::kQProj), Tier::kCpu);
    EXPECT_EQ(tier_of(1, WeightRole::kKProj), Tier::kCpu);
    EXPECT_EQ(tier_of(1, WeightRole::kVProj), Tier::kCpu);
    EXPECT_EQ(tier_of(1, WeightRole::kOutProj), Tier::kCpu);
}

TEST_F(HelmPlacementTest, NothingOnDisk)
{
    // Listing 3: MHA (10, 90, 0) and FFN (30, 70, 0) leave disk empty.
    EXPECT_EQ(map_.tier_total(Tier::kDisk), 0u);
}

TEST_F(HelmPlacementTest, FfnSplitRoughlyHalfHalf)
{
    // Fig. 10: fc1 + metadata give FFN layers a ~50% GPU share — the
    // requested 30% overshoots because fc1's midpoint falls below 30%.
    const TierSplit ffn = map_.split_for_type(LayerType::kFfn);
    EXPECT_NEAR(ffn.gpu, 50.0, 1.0);
    EXPECT_NEAR(ffn.cpu, 50.0, 1.0);
}

TEST_F(HelmPlacementTest, MhaAlmostEntirelyOnHost)
{
    const TierSplit mha = map_.split_for_type(LayerType::kMha);
    EXPECT_LT(mha.gpu, 1.0); // only bias/norm metadata
    EXPECT_GT(mha.cpu, 99.0);
}

TEST_F(HelmPlacementTest, TotalGpuShareAboutOneThird)
{
    // Sec. V-C: "even with HeLM, only 33% of the total weights are held
    // in the GPU memory".
    EXPECT_NEAR(map_.achieved().gpu, 33.0, 1.5);
}

TEST_F(HelmPlacementTest, FfnTransferDropsMhaTransferRises)
{
    // Fig. 11a: HeLM reduces FFN transfer ~49% and raises MHA ~33%
    // relative to the baseline.
    const PlacementMap base = place_baseline(layers_, Policy::host_offload());
    const Bytes base_ffn = base.layers[2].off_gpu_bytes();
    const Bytes helm_ffn = map_.layers[2].off_gpu_bytes();
    const Bytes base_mha = base.layers[1].off_gpu_bytes();
    const Bytes helm_mha = map_.layers[1].off_gpu_bytes();
    const double ffn_delta =
        1.0 - static_cast<double>(helm_ffn) /
                  static_cast<double>(base_ffn);
    const double mha_delta =
        static_cast<double>(helm_mha) / static_cast<double>(base_mha) -
        1.0;
    EXPECT_NEAR(ffn_delta, 0.4933, 0.03);
    EXPECT_NEAR(mha_delta, 0.3255, 0.03);
}

TEST_F(HelmPlacementTest, TransfersBalancedAcrossBlockLayers)
{
    // HeLM's goal: FFN and MHA off-GPU bytes within ~15% of each other,
    // versus the baseline's 2.7x imbalance.
    const Bytes mha_off = map_.layers[1].off_gpu_bytes();
    const Bytes ffn_off = map_.layers[2].off_gpu_bytes();
    const double ratio = static_cast<double>(ffn_off) /
                         static_cast<double>(mha_off);
    EXPECT_GT(ratio, 0.85);
    EXPECT_LT(ratio, 1.15);
}

TEST(HelmPlacement, CustomSplitsChangeGpuShare)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt13B), DataType::kInt4Grouped);
    HelmSplits aggressive;
    aggressive.ffn = {80.0, 20.0, 0.0};
    const TierSplit def = place_helm(layers, Policy::host_offload())
                              .split_for_type(LayerType::kFfn);
    const TierSplit agg =
        place_helm(layers, Policy::host_offload(), aggressive)
            .split_for_type(LayerType::kFfn);
    EXPECT_GT(agg.gpu, def.gpu);
}

TEST(HelmPlacement, EmbeddingLayersFollowThePolicy)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt1_3B));
    // All-GPU policy: the embedding layers land fully on the GPU while
    // MHA/FFN still follow HeLM's own splits.
    const Policy policy{0.0, 0.0, 100.0, false};
    const PlacementMap map = place_helm(layers, policy);
    EXPECT_EQ(map.layers.front().bytes_on(Tier::kGpu),
              map.layers.front().total_bytes());
    EXPECT_EQ(map.layers.back().bytes_on(Tier::kGpu),
              map.layers.back().total_bytes());
    EXPECT_LT(map.split_for_type(LayerType::kMha).gpu, 1.0);
}

TEST(AllCpuPlacement, EverythingOnHost)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt30B));
    const PlacementMap map = place_all_cpu(layers);
    EXPECT_EQ(map.tier_total(Tier::kGpu), 0u);
    EXPECT_EQ(map.tier_total(Tier::kDisk), 0u);
    EXPECT_EQ(map.tier_total(Tier::kCpu),
              model::model_weight_bytes(layers));
    EXPECT_NEAR(map.achieved().cpu, 100.0, 1e-9);
}

TEST(AllCpuPlacement, IgnoresPolicy)
{
    // An all-GPU policy reaches the engine's dispatch, which places
    // All-CPU without it.
    runtime::ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.placement = PlacementKind::kAllCpu;
    spec.policy = Policy{0.0, 0.0, 100.0, false};
    spec.repeats = 1;
    spec.keep_records = false;
    const auto result = runtime::simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->placement.tier_total(Tier::kGpu), 0u);
}

TEST(PlacementFactory, AllKinds)
{
    // Every scheme's printable name parses back to it.
    for (auto kind : {PlacementKind::kBaseline, PlacementKind::kHelm,
                      PlacementKind::kAllCpu, PlacementKind::kBalanced}) {
        const auto parsed = parse_placement_kind(placement_kind_name(kind));
        ASSERT_TRUE(parsed.is_ok()) << placement_kind_name(kind);
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_STREQ(placement_kind_name(PlacementKind::kHelm), "HeLM");
    EXPECT_STREQ(placement_kind_name(PlacementKind::kAllCpu), "All-CPU");
}

} // namespace
} // namespace helm::placement
