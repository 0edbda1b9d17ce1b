/**
 * @file
 * Additional engine/metrics coverage: custom CXL bandwidth, overlap
 * summarization edge cases, spill-report consistency, and the fabric's
 * runaway guard.
 */
#include <gtest/gtest.h>

#include <functional>

#include "model/opt.h"
#include "runtime/engine.h"
#include "runtime/executor.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

TEST(CustomCxl, BandwidthMonotone)
{
    // Faster expanders must never be slower end to end.
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt13B);
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.batch = 1;
    spec.repeats = 2;
    spec.keep_records = false;
    double prev_tbt = 1e18;
    for (double gbps : {4.0, 8.0, 16.0, 32.0}) {
        spec.memory = mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(gbps));
        const auto result = simulate_inference(spec);
        ASSERT_TRUE(result.is_ok());
        EXPECT_LT(result->metrics.tbt, prev_tbt);
        prev_tbt = result->metrics.tbt;
    }
}

TEST(CustomCxl, MatchesNamedConfigsAtTheirBandwidths)
{
    // A custom expander at 5.12 GB/s must replicate CXL-FPGA.
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.placement = placement::PlacementKind::kBaseline;
    spec.compress_weights = true;
    spec.batch = 1;
    spec.repeats = 2;
    spec.keep_records = false;

    spec.memory = mem::ConfigKind::kCxlFpga;
    const auto named = simulate_inference(spec);
    spec.memory = mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(5.12));
    const auto custom = simulate_inference(spec);
    ASSERT_TRUE(named.is_ok());
    ASSERT_TRUE(custom.is_ok());
    EXPECT_NEAR(custom->metrics.tbt, named->metrics.tbt,
                named->metrics.tbt * 0.01);
}

TEST(CustomCxl, CanExceedPcieDmaPath)
{
    // Sec. V-D projection: a 40 GB/s expander beats the ~24.5 GB/s PCIe
    // DMA path that binds the DRAM configuration.
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.compress_weights = true;
    spec.batch = 1;
    spec.repeats = 2;
    spec.keep_records = false;
    spec.memory = mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(40.0));
    const auto cxl = simulate_inference(spec);
    spec.memory = mem::ConfigKind::kDram;
    const auto dram = simulate_inference(spec);
    ASSERT_TRUE(cxl.is_ok());
    ASSERT_TRUE(dram.is_ok());
    EXPECT_LT(cxl->metrics.tbt, dram->metrics.tbt);
}

TEST(OverlapSummary, EmptyInputsYieldZeros)
{
    const auto s = summarize_overlap({}, gpu::Stage::kDecode, 0);
    EXPECT_DOUBLE_EQ(s.avg_compute, 0.0);
    EXPECT_DOUBLE_EQ(s.avg_transfer, 0.0);
    EXPECT_DOUBLE_EQ(s.mha_compute_over_ffn_load(), 0.0);
    EXPECT_DOUBLE_EQ(s.ffn_compute_over_mha_load(), 0.0);
}

TEST(OverlapSummary, SkipBatchesDiscardsColdRepeats)
{
    std::vector<LayerStepRecord> records;
    // Batch 0 (cold): inflated transfer; batch 1: steady state.
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
        LayerStepRecord mha;
        mha.batch_index = rep;
        mha.type = model::LayerType::kMha;
        mha.stage = gpu::Stage::kDecode;
        mha.compute_time = 1.0;
        mha.transfer_time = rep == 0 ? 100.0 : 2.0;
        records.push_back(mha);
        LayerStepRecord ffn = mha;
        ffn.type = model::LayerType::kFfn;
        ffn.compute_time = 3.0;
        ffn.transfer_time = rep == 0 ? 100.0 : 4.0;
        records.push_back(ffn);
    }
    const auto all = summarize_overlap(records, gpu::Stage::kDecode, 0);
    const auto warm = summarize_overlap(records, gpu::Stage::kDecode, 1);
    EXPECT_GT(all.avg_transfer, warm.avg_transfer);
    EXPECT_DOUBLE_EQ(warm.avg_mha_transfer, 2.0);
    EXPECT_DOUBLE_EQ(warm.avg_ffn_transfer, 4.0);
    EXPECT_DOUBLE_EQ(warm.mha_compute_over_ffn_load(), 0.25);
    EXPECT_DOUBLE_EQ(warm.ffn_compute_over_mha_load(), 1.5);
}

TEST(OverlapSummary, EmbeddingLayersExcluded)
{
    std::vector<LayerStepRecord> records;
    LayerStepRecord emb;
    emb.type = model::LayerType::kInputEmbedding;
    emb.stage = gpu::Stage::kDecode;
    emb.compute_time = 1000.0;
    records.push_back(emb);
    const auto s = summarize_overlap(records, gpu::Stage::kDecode, 0);
    EXPECT_DOUBLE_EQ(s.avg_compute, 0.0);
}

TEST(SpillReport, ConsistentWithPlacement)
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kHelm;
    spec.compress_weights = true;
    spec.batch = 8; // forces HeLM to spill
    spec.repeats = 1;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    const auto &spill = result->spill;
    EXPECT_TRUE(spill.fits);
    EXPECT_EQ(spill.gpu_weight_bytes_after,
              result->placement.tier_total(placement::Tier::kGpu));
    EXPECT_EQ(spill.gpu_weight_bytes_before - spill.spilled_bytes,
              spill.gpu_weight_bytes_after);
    if (spill.spilled()) {
        EXPECT_GT(spill.spilled_weights, 0u);
    }
}

TEST(Engine, DisablingCapacityEnforcementFailsWhenOverBudget)
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kHelm;
    spec.compress_weights = true;
    spec.batch = 8;
    spec.repeats = 1;
    spec.enforce_gpu_capacity = false;
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kCapacityExceeded);
}

TEST(Engine, PcieGenerationAffectsDramRuns)
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt13B);
    spec.memory = mem::ConfigKind::kDram;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.batch = 1;
    spec.repeats = 2;
    spec.keep_records = false;
    spec.pcie = mem::PcieLink(3, 16);
    const auto gen3 = simulate_inference(spec);
    spec.pcie = mem::PcieLink(5, 16);
    const auto gen5 = simulate_inference(spec);
    ASSERT_TRUE(gen3.is_ok());
    ASSERT_TRUE(gen5.is_ok());
    // DRAM feeds faster than any link here, so the link is binding.
    EXPECT_LT(gen5->metrics.tbt, gen3->metrics.tbt);
}

TEST(FabricRun, RunawayReturnsInternalStatusInsteadOfAborting)
{
    FabricRates rates;
    rates.h2d = Bandwidth::gb_per_s(1.0);
    rates.d2h = Bandwidth::gb_per_s(1.0);
    Fabric fabric(1, gpu::GpuSpec::a100_40gb(), rates);
    std::function<void()> tick = [&] { fabric.sim().schedule(1.0, tick); };
    tick();
    const Status status = fabric.run(/*max_events=*/1000);
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.to_string().find("DES runaway"), std::string::npos)
        << status.to_string();
}

} // namespace
} // namespace helm::runtime
