/**
 * @file
 * Unit tests for the transformer layer builder against the paper's
 * published model dimensions.
 */
#include <gtest/gtest.h>

#include <set>

#include "model/llama.h"
#include "model/opt.h"
#include "model/transformer.h"

namespace helm::model {
namespace {

TEST(Transformer, LayerCountsMatchPaper)
{
    // Sec. III-B: OPT-30B has 98 layers, OPT-175B has 194.
    EXPECT_EQ(opt_config(OptVariant::kOpt30B).num_layers(), 98u);
    EXPECT_EQ(opt_config(OptVariant::kOpt175B).num_layers(), 194u);
    const auto layers30 =
        build_layers(opt_config(OptVariant::kOpt30B));
    const auto layers175 =
        build_layers(opt_config(OptVariant::kOpt175B));
    EXPECT_EQ(layers30.size(), 98u);
    EXPECT_EQ(layers175.size(), 194u);
}

TEST(Transformer, LayerOrdering)
{
    const auto layers = build_layers(opt_config(OptVariant::kOpt1_3B));
    EXPECT_EQ(layers.front().type, LayerType::kInputEmbedding);
    EXPECT_EQ(layers.back().type, LayerType::kOutputEmbedding);
    for (std::size_t i = 1; i + 1 < layers.size(); ++i) {
        const LayerType expected =
            (i % 2 == 1) ? LayerType::kMha : LayerType::kFfn;
        EXPECT_EQ(layers[i].type, expected) << "layer " << i;
    }
}

TEST(Transformer, LayerIndicesAndBlocks)
{
    const auto layers = build_layers(opt_config(OptVariant::kOpt1_3B));
    for (std::size_t i = 0; i < layers.size(); ++i)
        EXPECT_EQ(layers[i].layer_index, static_cast<int>(i));
    EXPECT_EQ(layers[0].block_index, -1);
    EXPECT_EQ(layers[1].block_index, 0);
    EXPECT_EQ(layers[2].block_index, 0);
    EXPECT_EQ(layers[3].block_index, 1);
    EXPECT_EQ(layers.back().block_index, -1);
}

TEST(Transformer, ParameterCountsMatchModelNames)
{
    // Published parameter counts, within 3%.
    EXPECT_NEAR(
        static_cast<double>(
            opt_config(OptVariant::kOpt30B).parameter_count()),
        30e9, 0.03 * 30e9);
    EXPECT_NEAR(
        static_cast<double>(
            opt_config(OptVariant::kOpt175B).parameter_count()),
        175e9, 0.03 * 175e9);
    EXPECT_NEAR(
        static_cast<double>(
            opt_config(OptVariant::kOpt6_7B).parameter_count()),
        6.7e9, 0.05 * 6.7e9);
}

/** Weight bytes of decoder block 0 (its MHA + FFN layers). */
Bytes
first_block_bytes(const TransformerConfig &config)
{
    Bytes total = 0;
    for (const auto &layer : build_layers(config, DataType::kFp16))
        if (layer.block_index == 0)
            total += layer.weight_bytes();
    return total;
}

TEST(Transformer, DecoderBlockBytesMatchPaperExample)
{
    // Sec. V: "for a single OPT-175B self-attention block, the model
    // weights occupy 3.38 GB" (GiB, FP16).
    const Bytes block = first_block_bytes(opt_config(OptVariant::kOpt175B));
    EXPECT_NEAR(static_cast<double>(block) / static_cast<double>(kGiB),
                3.38, 0.02);
}

TEST(Transformer, TotalWeightBytesMatchPaperExample)
{
    // Sec. V: "total memory footprint of the model weights is 324.48 GB"
    // (GiB; decoder blocks only).
    const auto config = opt_config(OptVariant::kOpt175B);
    const Bytes block = first_block_bytes(config);
    EXPECT_NEAR(static_cast<double>(config.blocks * block) /
                    static_cast<double>(kGiB),
                324.48, 1.0);
}

TEST(Transformer, FfnLayerTwiceTheMhaLayer)
{
    // Fig. 7: FFN layers are the ridges, MHA the dips — FFN holds 2x the
    // bytes (8h^2 vs 4h^2).
    const auto layers = build_layers(opt_config(OptVariant::kOpt175B));
    const double mha = static_cast<double>(layers[1].weight_bytes());
    const double ffn = static_cast<double>(layers[2].weight_bytes());
    EXPECT_NEAR(ffn / mha, 2.0, 0.01);
}

TEST(Transformer, CompressionQuartersMatrixWeights)
{
    const auto config = opt_config(OptVariant::kOpt30B);
    const auto fp16 = build_layers(config, DataType::kFp16);
    const auto int4 = build_layers(config, DataType::kInt4Grouped);
    const double ratio =
        static_cast<double>(model_weight_bytes(int4)) /
        static_cast<double>(model_weight_bytes(fp16));
    EXPECT_NEAR(ratio, 0.28, 0.01);
}

TEST(Transformer, BiasAndNormStayFp16UnderCompression)
{
    const auto layers = build_layers(opt_config(OptVariant::kOpt1_3B),
                                     DataType::kInt4Grouped);
    for (const auto &w : layers[1].weights) {
        if (is_matrix_role(w.role))
            EXPECT_EQ(w.dtype, DataType::kInt4Grouped)
                << weight_role_name(w.role);
        else
            EXPECT_EQ(w.dtype, DataType::kFp16) << weight_role_name(w.role);
    }
}

TEST(Transformer, NoRoleTwiceInOneLayer)
{
    // A weight is named by its layer index and role, so no layer may
    // hold two tensors of one role.
    for (const auto &config : {opt_config(OptVariant::kOpt2_7B),
                               llama_config(LlamaVariant::kLlama2_70B)}) {
        for (const auto &layer : build_layers(config)) {
            std::set<WeightRole> roles;
            for (const auto &w : layer.weights) {
                EXPECT_TRUE(roles.insert(w.role).second)
                    << config.name << " layer " << layer.layer_index
                    << ": " << weight_role_name(w.role) << " twice";
            }
        }
    }
}

TEST(Transformer, MhaWeightEnumeration)
{
    // FlexGen order: projection matrices first, then biases, then the
    // input LayerNorm — Listing 2 cumulates over this order.
    const auto layers = build_layers(opt_config(OptVariant::kOpt1_3B));
    const auto &mha = layers[1];
    ASSERT_EQ(mha.weights.size(), 10u);
    EXPECT_EQ(mha.weights[0].role, WeightRole::kQProj);
    EXPECT_EQ(mha.weights[3].role, WeightRole::kOutProj);
    EXPECT_EQ(mha.weights[4].role, WeightRole::kQBias);
    EXPECT_EQ(mha.weights[9].role, WeightRole::kAttnLnBias);
}

TEST(Transformer, FfnWeightEnumeration)
{
    const auto layers = build_layers(opt_config(OptVariant::kOpt1_3B));
    const auto &ffn = layers[2];
    ASSERT_EQ(ffn.weights.size(), 6u);
    EXPECT_EQ(ffn.weights[0].role, WeightRole::kFc1);
    EXPECT_EQ(ffn.weights[1].role, WeightRole::kFc2);
    // fc1 and fc2 matrices are the same size (h*4h).
    EXPECT_EQ(ffn.weights[0].bytes(), ffn.weights[1].bytes());
}

TEST(Transformer, HeadDimension)
{
    EXPECT_EQ(opt_config(OptVariant::kOpt175B).head_dim(), 128u);
    EXPECT_EQ(opt_config(OptVariant::kOpt30B).head_dim(), 128u);
}

TEST(Transformer, WeightRoleClassification)
{
    EXPECT_TRUE(is_matrix_role(WeightRole::kFc1));
    EXPECT_TRUE(is_matrix_role(WeightRole::kTokenEmbedding));
    EXPECT_FALSE(is_matrix_role(WeightRole::kQBias));
    EXPECT_FALSE(is_matrix_role(WeightRole::kAttnLnWeight));
    EXPECT_TRUE(is_matrix_role(WeightRole::kLmHead));
}

} // namespace
} // namespace helm::model
