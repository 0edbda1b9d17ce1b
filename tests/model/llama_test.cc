/**
 * @file
 * Unit tests for the LLaMa zoo and the GQA/gated-FFN generalization of
 * the transformer builder.
 */
#include <gtest/gtest.h>

#include <string>

#include "model/footprint.h"
#include "model/llama.h"
#include "model/opt.h"
#include "model/zoo.h"
#include "placement/helm_placement.h"
#include "runtime/engine.h"

namespace helm::model {
namespace {

TEST(Llama, ParameterCountsMatchModelNames)
{
    EXPECT_NEAR(static_cast<double>(
                    llama_config(LlamaVariant::kLlama2_7B)
                        .parameter_count()),
                6.74e9, 0.05e9 * 3);
    EXPECT_NEAR(static_cast<double>(
                    llama_config(LlamaVariant::kLlama2_13B)
                        .parameter_count()),
                13.0e9, 0.4e9);
    EXPECT_NEAR(static_cast<double>(
                    llama_config(LlamaVariant::kLlama2_70B)
                        .parameter_count()),
                69e9, 2e9);
    EXPECT_NEAR(static_cast<double>(
                    llama_config(LlamaVariant::kLlama3_8B)
                        .parameter_count()),
                8.0e9, 0.3e9);
}

TEST(Llama, FamilySwitches)
{
    const auto c = llama_config(LlamaVariant::kLlama2_70B);
    EXPECT_FALSE(c.has_biases);
    EXPECT_FALSE(c.has_pos_embedding);
    EXPECT_FALSE(c.norm_has_bias);
    EXPECT_TRUE(c.gated_ffn);
    EXPECT_EQ(c.kv_heads, 8u);
    EXPECT_EQ(c.effective_kv_heads(), 8u);
    EXPECT_EQ(c.kv_dim(), 8u * 128u);
}

TEST(Llama, OptDefaultsUnchanged)
{
    // The generalization must not perturb the paper's models.
    const auto opt = opt_config(OptVariant::kOpt175B);
    EXPECT_TRUE(opt.has_biases);
    EXPECT_TRUE(opt.has_pos_embedding);
    EXPECT_TRUE(opt.norm_has_bias);
    EXPECT_FALSE(opt.gated_ffn);
    EXPECT_EQ(opt.effective_kv_heads(), opt.heads);
    EXPECT_EQ(opt.kv_dim(), opt.hidden);
}

TEST(Llama, GqaShrinksKvCacheEightfold)
{
    const auto llama70 = llama_config(LlamaVariant::kLlama2_70B);
    TransformerConfig mha_twin = llama70; // same dims, full MHA
    mha_twin.kv_heads = 0;
    const Bytes gqa = kv_bytes_per_block(llama70, 2048);
    const Bytes mha = kv_bytes_per_block(mha_twin, 2048);
    EXPECT_EQ(mha, 8 * gqa);
}

TEST(Llama, LayerStructure)
{
    const auto layers =
        build_layers(llama_config(LlamaVariant::kLlama2_7B));
    // 32 blocks x 2 + 2.
    EXPECT_EQ(layers.size(), 66u);
    // No bias/pos/norm-bias weights anywhere.
    for (const auto &layer : layers) {
        for (const auto &w : layer.weights) {
            const std::string where = "layer " +
                                      std::to_string(layer.layer_index) +
                                      " " + weight_role_name(w.role);
            EXPECT_NE(w.role, WeightRole::kQBias) << where;
            EXPECT_NE(w.role, WeightRole::kAttnLnBias) << where;
            EXPECT_NE(w.role, WeightRole::kPosEmbedding) << where;
            EXPECT_NE(w.role, WeightRole::kFc1Bias) << where;
        }
    }
    // Gated FFN: fc1, fc2, fc3, norm weight.
    const auto &ffn = layers[2];
    ASSERT_EQ(ffn.weights.size(), 4u);
    EXPECT_EQ(ffn.weights[0].role, WeightRole::kFc1);
    EXPECT_EQ(ffn.weights[1].role, WeightRole::kFc2);
    EXPECT_EQ(ffn.weights[2].role, WeightRole::kFc3);
    EXPECT_EQ(ffn.weights[3].role, WeightRole::kFfnLnWeight);
    EXPECT_EQ(ffn.weights[0].bytes(), ffn.weights[2].bytes());
}

TEST(Llama, GqaShrinksKvProjections)
{
    const auto layers =
        build_layers(llama_config(LlamaVariant::kLlama2_70B));
    const auto &mha = layers[1];
    // q: h x h; k: h x kv_dim = h x h/8.
    EXPECT_EQ(mha.weights[0].role, WeightRole::kQProj);
    EXPECT_EQ(mha.weights[1].role, WeightRole::kKProj);
    EXPECT_EQ(mha.weights[0].elements, 8 * mha.weights[1].elements);
}

TEST(Llama, ZooLookup)
{
    // The registry lookup `--model` and sweeps use.
    auto found = find_model("LLaMa-2-70B");
    ASSERT_TRUE(found.is_ok());
    EXPECT_EQ(found->blocks, 80u);
    EXPECT_FALSE(find_model("LLaMa-9000").is_ok());
}

TEST(Llama, HelmPlacementBalancesGatedFfn)
{
    // With three equal FFN matrices, HeLM's 30% request lands the first
    // (gate) matrix on the GPU: its size midpoint sits at ~1/6 < 30%.
    const auto layers = build_layers(
        llama_config(LlamaVariant::kLlama2_70B),
        DataType::kInt4Grouped);
    const auto map = placement::place_helm(
        layers, placement::Policy::host_offload());
    const auto ffn = map.split_for_type(LayerType::kFfn);
    EXPECT_GT(ffn.gpu, 25.0);
    EXPECT_LT(ffn.gpu, 40.0);
}

TEST(Llama, EndToEndServing)
{
    runtime::ServingSpec spec;
    spec.model = llama_config(LlamaVariant::kLlama2_70B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kHelm;
    spec.compress_weights = true;
    spec.batch = 4;
    spec.repeats = 2;
    const auto result = runtime::simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_GT(result->metrics.throughput, 0.0);
}

TEST(Llama, GqaAdmitsLargerBatches)
{
    // Same dims, GQA vs full MHA: the 8x smaller KV cache must admit a
    // much larger maximum batch.
    const auto gqa = llama_config(LlamaVariant::kLlama2_70B);
    TransformerConfig mha_twin = gqa;
    mha_twin.kv_heads = 0;
    const auto gpu = gpu::GpuSpec::a100_40gb();
    SequenceShape shape;
    const auto gqa_layers = build_layers(gqa, DataType::kInt4Grouped);
    const auto mha_layers =
        build_layers(mha_twin, DataType::kInt4Grouped);
    const auto gqa_max =
        runtime::max_batch(gpu, gqa, gqa_layers, 0, shape, true);
    const auto mha_max =
        runtime::max_batch(gpu, mha_twin, mha_layers, 0, shape, true);
    EXPECT_GT(gqa_max, 4 * mha_max);
}

} // namespace
} // namespace helm::model
