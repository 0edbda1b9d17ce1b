/**
 * @file
 * Unit tests for the GPU roofline compute model.
 */
#include <gtest/gtest.h>

#include "gpu/compute_model.h"
#include "model/opt.h"
#include "runtime/planner.h"

namespace helm::gpu {
namespace {

using model::LayerType;
using model::OptVariant;

class ComputeModelTest : public ::testing::Test
{
  protected:
    LayerWork
    work(LayerType layer, Stage stage, std::uint64_t batch,
         bool compressed = false) const
    {
        LayerWork w;
        w.config = &config_;
        w.layer = layer;
        w.stage = stage;
        w.batch = batch;
        w.prompt_tokens = 128;
        w.context_tokens = 140;
        w.compressed = compressed;
        return w;
    }

    model::TransformerConfig config_ =
        model::opt_config(OptVariant::kOpt175B);
    GpuSpec gpu_ = GpuSpec::a100_40gb();
};

TEST_F(ComputeModelTest, A100Spec)
{
    EXPECT_EQ(gpu_.hbm_capacity, 40 * kGB); // Table I
    EXPECT_NEAR(gpu_.hbm_bandwidth.as_gb_per_s(), 1555.0, 1e-9);
    EXPECT_NEAR(gpu_.peak_fp16_flops, 312e12, 1e6);
    EXPECT_GT(gpu_.effective_flops(), 0.0);
    EXPECT_LT(gpu_.effective_flops(), gpu_.peak_fp16_flops);
    EXPECT_LT(gpu_.effective_hbm().raw(), gpu_.hbm_bandwidth.raw());
}

TEST_F(ComputeModelTest, PrefillFlopsDwarfDecodeFlops)
{
    // Fig. 1: prefill = GEMM over the whole prompt, decode = GEMV.
    const double prefill =
        layer_flops(work(LayerType::kMha, Stage::kPrefill, 1));
    const double decode =
        layer_flops(work(LayerType::kMha, Stage::kDecode, 1));
    EXPECT_GT(prefill, 50.0 * decode);
}

TEST_F(ComputeModelTest, FlopsScaleLinearlyWithBatch)
{
    for (LayerType layer : {LayerType::kMha, LayerType::kFfn}) {
        const double b1 =
            layer_flops(work(layer, Stage::kPrefill, 1));
        const double b8 =
            layer_flops(work(layer, Stage::kPrefill, 8));
        EXPECT_NEAR(b8 / b1, 8.0, 1e-9);
    }
}

TEST_F(ComputeModelTest, FfnHasTwiceTheMhaProjectionFlops)
{
    // 8bsh^2 (MHA projections) vs 16bsh^2 (FFN), attention aside.
    const double mha =
        layer_flops(work(LayerType::kMha, Stage::kDecode, 1));
    const double ffn =
        layer_flops(work(LayerType::kFfn, Stage::kDecode, 1));
    EXPECT_GT(ffn, 1.8 * mha);
    EXPECT_LT(ffn, 2.1 * mha);
}

TEST_F(ComputeModelTest, DecodeIsMemoryBound)
{
    // Decode GEMV: HBM time must dominate FLOP time (Sec. II-A).
    const LayerWork w = work(LayerType::kFfn, Stage::kDecode, 1);
    const double flop_time = layer_flops(w) / gpu_.effective_flops();
    const double hbm_time =
        gpu_.effective_hbm().transfer_time(layer_hbm_bytes(w));
    EXPECT_GT(hbm_time, flop_time);
}

TEST_F(ComputeModelTest, LargeBatchPrefillIsComputeBound)
{
    const LayerWork w = work(LayerType::kFfn, Stage::kPrefill, 32);
    const double flop_time = layer_flops(w) / gpu_.effective_flops();
    const double hbm_time =
        gpu_.effective_hbm().transfer_time(layer_hbm_bytes(w));
    EXPECT_GT(flop_time, hbm_time);
}

TEST_F(ComputeModelTest, DecodeHbmDominatedByWeights)
{
    // At batch 1 the weight matrices dominate decode traffic, so batch
    // barely moves the HBM byte count (weight reuse — the whole point
    // of batching).
    const Bytes b1 = layer_hbm_bytes(work(LayerType::kFfn,
                                          Stage::kDecode, 1));
    const Bytes b8 = layer_hbm_bytes(work(LayerType::kFfn,
                                          Stage::kDecode, 8));
    EXPECT_LT(static_cast<double>(b8) / static_cast<double>(b1), 1.1);
}

TEST_F(ComputeModelTest, CompressionAddsDequantTime)
{
    const Seconds plain = layer_compute_time(
        gpu_, work(LayerType::kFfn, Stage::kDecode, 1, false));
    const Seconds compressed = layer_compute_time(
        gpu_, work(LayerType::kFfn, Stage::kDecode, 1, true));
    // Fig. 6: compute inflates 2.5x-13x under compression.
    const double inflation = compressed / plain;
    EXPECT_GT(inflation, 2.5);
    EXPECT_LT(inflation, 13.0);
}

TEST_F(ComputeModelTest, DequantBytesMatchFp16MatrixFootprint)
{
    const Bytes mha = layer_dequant_bytes(
        work(LayerType::kMha, Stage::kDecode, 1, true));
    EXPECT_EQ(mha, 4 * 12288ull * 12288ull * 2ull);
    const Bytes ffn = layer_dequant_bytes(
        work(LayerType::kFfn, Stage::kDecode, 1, true));
    EXPECT_EQ(ffn, 2 * 12288ull * 49152ull * 2ull);
    EXPECT_EQ(layer_dequant_bytes(
                  work(LayerType::kMha, Stage::kDecode, 1, false)),
              0u);
}

TEST_F(ComputeModelTest, DecodeComputeTimeInsensitiveToBatch)
{
    // Fig. 12e: decode compute does not increase from batch 8 to 44.
    const Seconds b8 = layer_compute_time(
        gpu_, work(LayerType::kFfn, Stage::kDecode, 8, true));
    const Seconds b44 = layer_compute_time(
        gpu_, work(LayerType::kFfn, Stage::kDecode, 44, true));
    EXPECT_NEAR(b44 / b8, 1.0, 0.1);
}

TEST_F(ComputeModelTest, MhaDecodeScalesWithContext)
{
    LayerWork short_ctx = work(LayerType::kMha, Stage::kDecode, 1);
    LayerWork long_ctx = short_ctx;
    long_ctx.context_tokens = 2048;
    EXPECT_GT(layer_flops(long_ctx), layer_flops(short_ctx));
    EXPECT_GT(layer_hbm_bytes(long_ctx), layer_hbm_bytes(short_ctx));
}

TEST_F(ComputeModelTest, EmbeddingLayersCheap)
{
    const Seconds emb = layer_compute_time(
        gpu_, work(LayerType::kInputEmbedding, Stage::kPrefill, 1));
    const Seconds mha = layer_compute_time(
        gpu_, work(LayerType::kMha, Stage::kPrefill, 1));
    EXPECT_LT(emb, mha);
}

TEST_F(ComputeModelTest, StageNames)
{
    EXPECT_STREQ(stage_name(Stage::kPrefill), "prefill");
    EXPECT_STREQ(stage_name(Stage::kDecode), "decode");
}

TEST_F(ComputeModelTest, UsableHbmSubtractsReserveAndStaging)
{
    // The planner's budget (what the runtime sizes the GPU tier from):
    // the fixed reserve plus a largest-FP16-layer staging buffer, and a
    // dequantization workspace and compressed streams on top of it when
    // the weights are 4-bit.
    const auto fp16 = model::build_layers(config_, model::DataType::kFp16);
    const auto int4 =
        model::build_layers(config_, model::DataType::kInt4Grouped);
    const model::SequenceShape shape;
    const auto plain = runtime::compute_gpu_budget(gpu_, config_, fp16, 0,
                                                   shape, 1, false);
    const auto compressed = runtime::compute_gpu_budget(
        gpu_, config_, int4, 0, shape, 1, true);
    EXPECT_EQ(plain.base_reserve, gpu_.base_reserve);
    EXPECT_EQ(plain.staging, runtime::StagingSizes(fp16).max_fp16);
    EXPECT_GT(compressed.staging, plain.staging);
    EXPECT_LT(plain.free_bytes(), gpu_.hbm_capacity);
    EXPECT_LT(compressed.free_bytes(), plain.free_bytes());
    // Degenerate: a budget past HBM has zero headroom, not underflow.
    GpuSpec small = gpu_;
    small.hbm_capacity = gpu_.base_reserve;
    EXPECT_EQ(runtime::compute_gpu_budget(small, config_, fp16, 0, shape, 1,
                                          false)
                  .free_bytes(),
              0u);
}

} // namespace
} // namespace helm::gpu
