/**
 * @file
 * Unit tests for GPU budgeting and max-batch planning, including the
 * paper's 8 -> 44 batch-size result.
 */
#include <gtest/gtest.h>

#include "model/opt.h"
#include "placement/baseline.h"
#include "placement/policy.h"
#include "runtime/planner.h"

namespace helm::runtime {
namespace {

using model::DataType;
using model::OptVariant;

class PlannerTest : public ::testing::Test
{
  protected:
    model::TransformerConfig config_ =
        model::opt_config(OptVariant::kOpt175B);
    gpu::GpuSpec gpu_ = gpu::GpuSpec::a100_40gb();
    model::SequenceShape shape_; // paper default: 128 in / 21 out
};

TEST_F(PlannerTest, MaxLayerIsTheFfn)
{
    const auto layers = model::build_layers(config_, DataType::kFp16);
    const Bytes max_fp16 = StagingSizes(layers).max_fp16;
    // OPT-175B FFN layer: 2 x 12288 x 49152 FP16 + metadata ~ 2.25 GiB.
    EXPECT_NEAR(static_cast<double>(max_fp16) /
                    static_cast<double>(kGiB),
                2.25, 0.01);
}

TEST_F(PlannerTest, BudgetComponentsPositiveAndSumCorrectly)
{
    const auto layers = model::build_layers(config_, DataType::kFp16);
    const GpuBudget budget = compute_gpu_budget(
        gpu_, config_, layers, 10 * kGiB, shape_, 4, false);
    EXPECT_EQ(budget.hbm_capacity, 40 * kGB);
    EXPECT_GT(budget.base_reserve, 0u);
    EXPECT_GT(budget.staging, 0u);
    EXPECT_EQ(budget.gpu_weights, 10 * kGiB);
    EXPECT_GT(budget.kv_cache, 0u);
    EXPECT_EQ(budget.used(),
              budget.base_reserve + budget.staging + budget.gpu_weights +
                  budget.kv_cache + budget.hidden +
                  budget.attention_scratch);
}

TEST_F(PlannerTest, CompressedStagingLargerThanUncompressed)
{
    const auto fp16 = model::build_layers(config_, DataType::kFp16);
    const auto int4 =
        model::build_layers(config_, DataType::kInt4Grouped);
    const GpuBudget plain =
        compute_gpu_budget(gpu_, config_, fp16, 0, shape_, 1, false);
    const GpuBudget compressed =
        compute_gpu_budget(gpu_, config_, int4, 0, shape_, 1, true);
    EXPECT_GT(compressed.staging, plain.staging);
}

TEST_F(PlannerTest, PaperMaxBatchBaselineUncompressedIs8)
{
    // Sec. IV-B / Fig. 4: max permissible batch for OPT-175B is 8.
    const auto layers = model::build_layers(config_, DataType::kFp16);
    const auto map = placement::place_baseline(
        layers, placement::Policy::host_offload());
    const Bytes gpu_weights =
        map.tier_total(placement::Tier::kGpu);
    EXPECT_EQ(max_batch(gpu_, config_, layers, gpu_weights, shape_,
                        false),
              8u);
}

TEST_F(PlannerTest, PaperMaxBatchAllCpuCompressedIs44)
{
    // Sec. V-C: All-CPU raises the maximum batch size from 8 to 44.
    const auto layers =
        model::build_layers(config_, DataType::kInt4Grouped);
    EXPECT_EQ(max_batch(gpu_, config_, layers, 0, shape_, true), 44u);
}

TEST_F(PlannerTest, MaxBatchMonotoneInGpuWeights)
{
    const auto layers =
        model::build_layers(config_, DataType::kInt4Grouped);
    std::uint64_t prev = max_batch(gpu_, config_, layers, 0, shape_,
                                   true);
    for (Bytes w = 4 * kGiB; w <= 24 * kGiB; w += 4 * kGiB) {
        const std::uint64_t mb =
            max_batch(gpu_, config_, layers, w, shape_, true);
        EXPECT_LE(mb, prev);
        prev = mb;
    }
}

TEST_F(PlannerTest, InfeasibleWhenWeightsAloneOverflow)
{
    const auto layers = model::build_layers(config_, DataType::kFp16);
    EXPECT_EQ(max_batch(gpu_, config_, layers, 100 * kGiB, shape_,
                        false),
              0u);
}

TEST_F(PlannerTest, GpuWeightBudgetShrinksWithBatch)
{
    const auto layers =
        model::build_layers(config_, DataType::kInt4Grouped);
    const Bytes b1 =
        gpu_weight_budget(gpu_, config_, layers, shape_, 1, true);
    const Bytes b8 =
        gpu_weight_budget(gpu_, config_, layers, shape_, 8, true);
    EXPECT_GT(b1, b8);
}

TEST_F(PlannerTest, SmallModelAllowsHugeBatches)
{
    const auto small = model::opt_config(OptVariant::kOpt1_3B);
    const auto layers = model::build_layers(small, DataType::kFp16);
    EXPECT_GT(max_batch(gpu_, small, layers, 0, shape_, false), 256u);
}

TEST_F(PlannerTest, MaxBatchRespectsLimit)
{
    const auto small = model::opt_config(OptVariant::kOpt125M);
    const auto layers = model::build_layers(small, DataType::kFp16);
    EXPECT_EQ(max_batch(gpu_, small, layers, 0, shape_, false, 64), 64u);
}

TEST_F(PlannerTest, AttentionScratchScalesWithBatchAndPrompt)
{
    const Bytes b1 = attention_scratch_bytes(config_, shape_, 1);
    const Bytes b4 = attention_scratch_bytes(config_, shape_, 4);
    EXPECT_EQ(b4, 4 * b1);
    model::SequenceShape longer = shape_;
    longer.prompt_tokens *= 2;
    EXPECT_EQ(attention_scratch_bytes(config_, longer, 1), 4 * b1);
}

TEST_F(PlannerTest, FreeBytesZeroWhenOverBudget)
{
    const auto layers = model::build_layers(config_, DataType::kFp16);
    const GpuBudget over = compute_gpu_budget(
        gpu_, config_, layers, 200 * kGiB, shape_, 1, false);
    EXPECT_FALSE(over.fits());
    EXPECT_EQ(over.free_bytes(), 0u);
}

} // namespace
} // namespace helm::runtime
