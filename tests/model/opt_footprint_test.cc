/**
 * @file
 * Unit tests for the OPT zoo and inference-footprint arithmetic.
 */
#include <gtest/gtest.h>

#include "model/footprint.h"
#include "model/opt.h"

namespace helm::model {
namespace {

TEST(OptZoo, DimensionsOfEvaluatedModels)
{
    const auto m30 = opt_config(OptVariant::kOpt30B);
    EXPECT_EQ(m30.hidden, 7168u);   // Sec. IV-B "hidden layer size"
    EXPECT_EQ(m30.blocks, 48u);     // Table II
    EXPECT_EQ(m30.heads, 56u);
    EXPECT_EQ(m30.ffn_hidden, 4 * 7168u);
    const auto m175 = opt_config(OptVariant::kOpt175B);
    EXPECT_EQ(m175.hidden, 12288u);
    EXPECT_EQ(m175.blocks, 96u);
    EXPECT_EQ(m175.heads, 96u);
}

TEST(OptZoo, AllVariantsWellFormed)
{
    for (OptVariant v : all_opt_variants()) {
        const auto c = opt_config(v);
        EXPECT_FALSE(c.name.empty());
        EXPECT_GT(c.hidden, 0u);
        EXPECT_EQ(c.hidden % c.heads, 0u) << c.name;
        EXPECT_EQ(c.ffn_hidden, 4 * c.hidden) << c.name;
        EXPECT_EQ(c.vocab, 50272u) << c.name;
        EXPECT_EQ(c.max_seq, 2048u) << c.name;
    }
}

TEST(OptZoo, SizesStrictlyIncrease)
{
    std::uint64_t prev = 0;
    for (OptVariant v : all_opt_variants()) {
        const std::uint64_t params = opt_config(v).parameter_count();
        EXPECT_GT(params, prev) << opt_config(v).name;
        prev = params;
    }
}

TEST(OptZoo, LookupByName)
{
    auto found = opt_config_by_name("OPT-30B");
    ASSERT_TRUE(found.is_ok());
    EXPECT_EQ(found->hidden, 7168u);
    auto missing = opt_config_by_name("GPT-5");
    EXPECT_FALSE(missing.is_ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(Footprint, KvBytesPerBlock)
{
    // K and V, each context x hidden FP16 elements.
    const auto m175 = opt_config(OptVariant::kOpt175B);
    const Bytes kv = kv_bytes_per_block(m175, 2048);
    EXPECT_EQ(kv, 2u * 2048u * 12288u * 2u);
    // 96 MiB per block at max context (the paper reports the per-tensor
    // half of this, 47.98 MB; see EXPERIMENTS.md).
    EXPECT_EQ(kv, 96 * kMiB);
}

TEST(Footprint, KvScalesLinearlyWithBatchAndContext)
{
    const auto m30 = opt_config(OptVariant::kOpt30B);
    SequenceShape shape; // 128 + 21
    const Bytes b1 = kv_bytes_batch(m30, shape, 1);
    const Bytes b8 = kv_bytes_batch(m30, shape, 8);
    EXPECT_EQ(b8, 8 * b1);
    EXPECT_EQ(kv_bytes_total(m30, 298), 2 * kv_bytes_total(m30, 149));
}

TEST(Footprint, KvQuantizationShrinks)
{
    const auto m175 = opt_config(OptVariant::kOpt175B);
    EXPECT_LT(kv_bytes_per_block(m175, 2048, DataType::kInt4Grouped),
              kv_bytes_per_block(m175, 2048, DataType::kFp16) / 3);
}

TEST(Footprint, HiddenStateSmallRelativeToKv)
{
    const auto m175 = opt_config(OptVariant::kOpt175B);
    SequenceShape shape;
    EXPECT_LT(hidden_bytes_batch(m175, shape, 1),
              kv_bytes_batch(m175, shape, 1));
}

TEST(Footprint, SequenceShapeDefaultsMatchPaper)
{
    SequenceShape shape;
    EXPECT_EQ(shape.prompt_tokens, 128u); // Sec. III-B
    EXPECT_EQ(shape.output_tokens, 21u);
    EXPECT_EQ(shape.max_context(), 149u);
}

TEST(Footprint, ComputeFootprintAggregates)
{
    // Sec. V's sizes, through the functions the engine uses.
    const auto m175 = opt_config(OptVariant::kOpt175B);
    SequenceShape shape;
    const auto layers = build_layers(m175, DataType::kFp16);
    const Bytes weights = model_weight_bytes(layers);
    Bytes block = 0;
    for (const auto &layer : layers)
        if (layer.block_index == 0)
            block += layer.weight_bytes();
    const Bytes kv = kv_bytes_batch(m175, shape, 4);
    EXPECT_GT(weights, 300 * kGiB);
    EXPECT_NEAR(static_cast<double>(block) / static_cast<double>(kGiB),
                3.38, 0.02);
    EXPECT_EQ(kv, 4 * kv_bytes_total(m175, shape.max_context()));
    EXPECT_GT(hidden_bytes_batch(m175, shape, 4), 0u);
    // Weights dominate KV cache by >> 10x at batch 4 (Sec. V's point).
    EXPECT_GT(weights, 10 * kv);
}

} // namespace
} // namespace helm::model
