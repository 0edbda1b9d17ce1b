/**
 * @file
 * Property-based (parameterized) sweeps: invariants that must hold
 * across models x memory configurations x placement schemes x batches.
 */
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "model/opt.h"
#include "model/zoo.h"
#include "placement/baseline.h"
#include "placement/helm_placement.h"
#include "runtime/engine.h"

namespace helm::runtime {
namespace {

using model::OptVariant;
using placement::PlacementKind;
using placement::Tier;

// ---------------------------------------------------------------------
// Placement invariants across every (model, policy, algorithm) triple.
// ---------------------------------------------------------------------

using PlacementCase =
    std::tuple<OptVariant, PlacementKind, bool /*compressed*/>;

/** The map profile-free scheme @p kind makes of @p layers under the
 *  host-memory policy. */
placement::PlacementMap
place(PlacementKind kind, const std::vector<model::LayerSpec> &layers)
{
    const placement::Policy policy = placement::Policy::host_offload();
    switch (kind) {
      case PlacementKind::kBaseline:
        return placement::place_baseline(layers, policy);
      case PlacementKind::kHelm:
        return placement::place_helm(layers, policy);
      default:
        return placement::place_all_cpu(layers);
    }
}

class PlacementProperty
    : public ::testing::TestWithParam<PlacementCase>
{
};

TEST_P(PlacementProperty, ConservationAndCompleteness)
{
    const auto [variant, kind, compressed] = GetParam();
    const auto config = model::opt_config(variant);
    const auto layers = model::build_layers(
        config, compressed ? model::DataType::kInt4Grouped
                           : model::DataType::kFp16);
    const placement::PlacementMap map = place(kind, layers);

    // Every layer accounted for; per-layer tier bytes sum to the layer.
    ASSERT_EQ(map.layers.size(), layers.size());
    Bytes total = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        EXPECT_EQ(map.layers[i].total_bytes(), layers[i].weight_bytes());
        EXPECT_EQ(map.layers[i].weight_tiers.size(),
                  layers[i].weights.size());
        total += map.layers[i].total_bytes();
    }
    EXPECT_EQ(total, model::model_weight_bytes(layers));

    // Achieved split sums to 100%.
    const auto split = map.achieved();
    EXPECT_NEAR(split.gpu + split.cpu + split.disk, 100.0, 1e-6);

    // Host-memory policy: nothing on disk for any of the three schemes.
    EXPECT_EQ(map.tier_total(Tier::kDisk), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAndSchemes, PlacementProperty,
    ::testing::Combine(
        ::testing::Values(OptVariant::kOpt1_3B, OptVariant::kOpt6_7B,
                          OptVariant::kOpt13B, OptVariant::kOpt30B,
                          OptVariant::kOpt66B, OptVariant::kOpt175B),
        ::testing::Values(PlacementKind::kBaseline, PlacementKind::kHelm,
                          PlacementKind::kAllCpu),
        ::testing::Bool()),
    [](const auto &info) {
        std::string name =
            model::opt_config(std::get<0>(info.param)).name;
        name += "_";
        name += placement::placement_kind_name(std::get<1>(info.param));
        name += std::get<2>(info.param) ? "_int4" : "_fp16";
        for (char &c : name) {
            if (c == '-' || c == '.')
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Engine invariants across memory configurations and schemes.
// ---------------------------------------------------------------------

using EngineCase = std::tuple<mem::ConfigKind, PlacementKind>;

class EngineProperty : public ::testing::TestWithParam<EngineCase>
{
};

TEST_P(EngineProperty, MetricsSaneOnEveryConfig)
{
    const auto [memory, kind] = GetParam();
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt6_7B);
    spec.memory = memory;
    spec.placement = kind;
    spec.batch = 2;
    spec.repeats = 2;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const auto &m = result->metrics;
    EXPECT_GT(m.ttft, 0.0);
    EXPECT_GT(m.tbt, 0.0);
    EXPECT_GT(m.throughput, 0.0);
    EXPECT_GE(m.ttft, m.tbt * 0.9); // prefill never cheaper than decode
    EXPECT_GT(m.total_time, 0.0);
    // Total time bounds: at least repeats x (ttft + (out-1) x tbt) / 2.
    EXPECT_LT(m.ttft, m.total_time);
    EXPECT_TRUE(result->budget.fits());
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, EngineProperty,
    ::testing::Combine(
        ::testing::Values(mem::ConfigKind::kDram, mem::ConfigKind::kNvdram,
                          mem::ConfigKind::kMemoryMode,
                          mem::ConfigKind::kSsd, mem::ConfigKind::kFsdax,
                          mem::ConfigKind::kCxlFpga,
                          mem::ConfigKind::kCxlAsic),
        ::testing::Values(PlacementKind::kBaseline, PlacementKind::kHelm,
                          PlacementKind::kAllCpu)),
    [](const auto &info) {
        std::string name =
            mem::config_kind_name(std::get<0>(info.param));
        name += "_";
        name += placement::placement_kind_name(std::get<1>(info.param));
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Batch-scaling properties (Figs. 4e/4f).
// ---------------------------------------------------------------------

class BatchScaling : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BatchScaling, ThroughputGrowsWithBatch)
{
    const std::uint64_t batch = GetParam();
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt6_7B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = PlacementKind::kAllCpu;
    spec.repeats = 2;

    spec.batch = batch;
    const auto big = simulate_inference(spec);
    spec.batch = std::max<std::uint64_t>(1, batch / 2);
    const auto small = simulate_inference(spec);
    ASSERT_TRUE(big.is_ok());
    ASSERT_TRUE(small.is_ok());
    if (batch > 1) {
        EXPECT_GT(big->metrics.throughput, small->metrics.throughput);
        // TBT grows sub-linearly with batch (weight reuse, Sec. II-A).
        EXPECT_LT(big->metrics.tbt,
                  small->metrics.tbt * static_cast<double>(batch));
    } else {
        EXPECT_DOUBLE_EQ(big->metrics.tbt, small->metrics.tbt);
    }
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchScaling,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// ---------------------------------------------------------------------
// Memory-hierarchy ordering holds for every model large enough to
// offload (Fig. 4's qualitative ranking).
// ---------------------------------------------------------------------

class HierarchyOrdering : public ::testing::TestWithParam<OptVariant>
{
};

TEST_P(HierarchyOrdering, DramNeverSlower)
{
    ServingSpec spec;
    spec.model = model::opt_config(GetParam());
    spec.batch = 1;
    spec.repeats = 2;
    spec.memory = mem::ConfigKind::kDram;
    const auto dram = simulate_inference(spec);
    spec.memory = mem::ConfigKind::kNvdram;
    const auto nvdram = simulate_inference(spec);
    spec.memory = mem::ConfigKind::kMemoryMode;
    const auto mm = simulate_inference(spec);
    ASSERT_TRUE(dram.is_ok());
    ASSERT_TRUE(nvdram.is_ok());
    ASSERT_TRUE(mm.is_ok());
    EXPECT_LE(dram->metrics.tbt, nvdram->metrics.tbt);
    EXPECT_LE(dram->metrics.tbt, mm->metrics.tbt * 1.0001);
    EXPECT_LE(mm->metrics.tbt, nvdram->metrics.tbt * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(Models, HierarchyOrdering,
                         ::testing::Values(OptVariant::kOpt6_7B,
                                           OptVariant::kOpt13B,
                                           OptVariant::kOpt30B,
                                           OptVariant::kOpt66B,
                                           OptVariant::kOpt175B));

// ---------------------------------------------------------------------
// Registry-wide invariants: every model in the zoo (both families) must
// place, budget, and serve cleanly under every scheme.
// ---------------------------------------------------------------------

class RegistryProperty
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RegistryProperty, PlacesAndServesUnderEveryScheme)
{
    const auto config = model::find_model(GetParam());
    ASSERT_TRUE(config.is_ok());
    for (auto scheme :
         {PlacementKind::kBaseline, PlacementKind::kHelm,
          PlacementKind::kBalanced, PlacementKind::kAllCpu}) {
        ServingSpec spec;
        spec.model = *config;
        spec.memory = mem::ConfigKind::kNvdram;
        spec.placement = scheme;
        spec.compress_weights = true;
        spec.batch = 1;
        spec.repeats = 1;
        spec.shape.output_tokens = 4; // keep the sweep fast
        const auto result = simulate_inference(spec);
        ASSERT_TRUE(result.is_ok())
            << GetParam() << " / "
            << placement::placement_kind_name(scheme) << ": "
            << result.status().to_string();
        EXPECT_GT(result->metrics.throughput, 0.0);
        EXPECT_TRUE(result->budget.fits());
        // Weight conservation across placement + spilling.
        EXPECT_EQ(result->placement.tier_total(Tier::kGpu) +
                      result->placement.tier_total(Tier::kCpu) +
                      result->placement.tier_total(Tier::kDisk),
                  result->model_bytes);
    }
}

TEST_P(RegistryProperty, CompressionAlwaysShrinksAndNeverSlowsTransfer)
{
    const auto config = model::find_model(GetParam());
    ASSERT_TRUE(config.is_ok());
    const auto fp16 =
        model::build_layers(*config, model::DataType::kFp16);
    const auto int4 =
        model::build_layers(*config, model::DataType::kInt4Grouped);
    EXPECT_LT(model::model_weight_bytes(int4),
              model::model_weight_bytes(fp16) / 3);
    // Per-layer monotonicity, not just the total.
    for (std::size_t i = 0; i < fp16.size(); ++i) {
        EXPECT_LE(int4[i].weight_bytes(), fp16[i].weight_bytes())
            << GetParam() << " layer " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredModels, RegistryProperty,
    ::testing::Values("OPT-1.3B", "OPT-6.7B", "OPT-13B", "OPT-30B",
                      "OPT-66B", "OPT-175B", "LLaMa-2-7B", "LLaMa-2-13B",
                      "LLaMa-2-70B", "LLaMa-3-8B", "LLaMa-3-70B"),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-' || c == '.')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace helm::runtime
