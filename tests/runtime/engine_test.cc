/**
 * @file
 * Unit tests for the inference engine: validation, schedule mechanics,
 * record consistency, and determinism.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "model/opt.h"
#include "runtime/engine.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

ServingSpec
small_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.batch = 2;
    spec.repeats = 2;
    return spec;
}

TEST(Engine, RejectsZeroBatch)
{
    ServingSpec spec = small_spec();
    spec.batch = 0;
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(Engine, RejectsZeroRepeats)
{
    ServingSpec spec = small_spec();
    spec.repeats = 0;
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(Engine, RejectsEmptyShape)
{
    ServingSpec spec = small_spec();
    spec.shape.output_tokens = 0;
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(Engine, RejectsIncompleteModel)
{
    ServingSpec spec = small_spec();
    spec.model = model::TransformerConfig{};
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(Engine, RejectsInvalidPolicy)
{
    ServingSpec spec = small_spec();
    spec.policy = placement::Policy{50.0, 50.0, 50.0, false};
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(Engine, RejectsDiskWeightsWithoutStorageTier)
{
    ServingSpec spec = small_spec();
    spec.memory = mem::ConfigKind::kNvdram;
    spec.policy = placement::Policy{65.0, 15.0, 20.0, false};
    const auto result = simulate_inference(spec);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Engine, RejectsImpossibleBatch)
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.compress_weights = true;
    spec.batch = 500; // KV alone exceeds 40 GB
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kCapacityExceeded);
}

TEST(Engine, ValidateAcceptsWellFormedSpec)
{
    EXPECT_TRUE(small_spec().validate().is_ok());
}

TEST(Engine, ValidateRejectsWithoutSimulating)
{
    // validate() alone flags the same errors simulate_inference would.
    ServingSpec zero_batch = small_spec();
    zero_batch.batch = 0;
    EXPECT_EQ(zero_batch.validate().code(), StatusCode::kInvalidArgument);

    ServingSpec bad_cxl = small_spec();
    bad_cxl.memory = mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(0.0));
    EXPECT_EQ(bad_cxl.validate().code(), StatusCode::kInvalidArgument);

    ServingSpec cxl_disk = small_spec();
    cxl_disk.memory = mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(16.0));
    cxl_disk.policy = placement::Policy{65.0, 15.0, 20.0, false};
    EXPECT_EQ(cxl_disk.validate().code(), StatusCode::kInvalidArgument);

    ServingSpec impossible;
    impossible.model = model::opt_config(OptVariant::kOpt175B);
    impossible.memory = mem::ConfigKind::kNvdram;
    impossible.placement = placement::PlacementKind::kAllCpu;
    impossible.compress_weights = true;
    impossible.batch = 500;
    EXPECT_EQ(impossible.validate().code(),
              StatusCode::kCapacityExceeded);
}

TEST(Engine, DefaultPolicyMatchesMemoryKind)
{
    using mem::make_config;
    EXPECT_DOUBLE_EQ(
        default_policy(make_config(mem::ConfigKind::kSsd)).disk_percent,
        65.0);
    EXPECT_DOUBLE_EQ(
        default_policy(make_config(mem::ConfigKind::kFsdax)).disk_percent,
        65.0);
    EXPECT_DOUBLE_EQ(
        default_policy(make_config(mem::ConfigKind::kNvdram)).disk_percent,
        0.0);
    EXPECT_DOUBLE_EQ(
        default_policy(make_config(mem::ConfigKind::kDram)).cpu_percent,
        80.0);

    // A custom CXL expander has no storage tier: host offload, so a
    // default-policy run places no weight bytes on disk.
    ServingSpec cxl = small_spec();
    cxl.memory = mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(64.0));
    const auto system = mem::make_system(
        cxl.memory, cxl.pcie);
    ASSERT_TRUE(system.is_ok());
    EXPECT_DOUBLE_EQ(default_policy(*system).cpu_percent, 80.0);
    const auto run = simulate_inference(cxl);
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    EXPECT_EQ(run->placement.tier_total(placement::Tier::kDisk), 0u);
}

TEST(Engine, RecordCountMatchesSchedule)
{
    const ServingSpec spec = small_spec();
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const std::uint64_t expected = spec.repeats *
                                   spec.shape.output_tokens *
                                   spec.model.num_layers();
    EXPECT_EQ(result->records.size(), expected);
}

TEST(Engine, RecordsAreTemporallyConsistent)
{
    const auto result = simulate_inference(small_spec());
    ASSERT_TRUE(result.is_ok());
    Seconds prev_end = 0.0;
    for (const auto &rec : result->records) {
        EXPECT_GE(rec.step_end, rec.step_start);
        EXPECT_GE(rec.step_start, prev_end - 1e-12)
            << "steps must retire in order";
        prev_end = rec.step_end;
        EXPECT_GE(rec.compute_time, 0.0);
        EXPECT_GE(rec.transfer_time, 0.0);
    }
}

TEST(Engine, StepDurationIsAtLeastComputePlusOverhead)
{
    const ServingSpec spec = small_spec();
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    for (const auto &rec : result->records) {
        EXPECT_GE(rec.step_end - rec.step_start,
                  rec.compute_time + spec.gpu.layer_overhead - 1e-9);
    }
}

TEST(Engine, TransferBytesMatchPlacement)
{
    const auto result = simulate_inference(small_spec());
    ASSERT_TRUE(result.is_ok());
    const auto &placement = result->placement;
    for (const auto &rec : result->records) {
        const auto &lp =
            placement.layers[static_cast<std::size_t>(rec.layer)];
        EXPECT_EQ(rec.transfer_bytes, lp.off_gpu_bytes());
    }
}

TEST(Engine, FirstTokenIsPrefillRestAreDecode)
{
    const auto result = simulate_inference(small_spec());
    ASSERT_TRUE(result.is_ok());
    for (const auto &rec : result->records) {
        if (rec.token == 0)
            EXPECT_EQ(rec.stage, gpu::Stage::kPrefill);
        else
            EXPECT_EQ(rec.stage, gpu::Stage::kDecode);
    }
}

TEST(Engine, DeterministicAcrossRuns)
{
    const ServingSpec spec = small_spec();
    const auto a = simulate_inference(spec);
    const auto b = simulate_inference(spec);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_DOUBLE_EQ(a->metrics.ttft, b->metrics.ttft);
    EXPECT_DOUBLE_EQ(a->metrics.tbt, b->metrics.tbt);
    EXPECT_DOUBLE_EQ(a->metrics.total_time, b->metrics.total_time);
}

TEST(Engine, RepeatsAfterFirstAreIdentical)
{
    ServingSpec spec = small_spec();
    spec.repeats = 4;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    const auto &ttfts = result->metrics.per_batch_ttft;
    ASSERT_EQ(ttfts.size(), 4u);
    // Steady-state repeats coincide; the paper discards the first.
    EXPECT_NEAR(ttfts[1], ttfts[2], 1e-9);
    EXPECT_NEAR(ttfts[2], ttfts[3], 1e-9);
}

TEST(Engine, KeepRecordsFalseDropsRecords)
{
    ServingSpec spec = small_spec();
    spec.keep_records = false;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    EXPECT_TRUE(result->records.empty());
    EXPECT_GT(result->metrics.ttft, 0.0);
}

TEST(Engine, ThroughputConsistentWithTotals)
{
    const auto result = simulate_inference(small_spec());
    ASSERT_TRUE(result.is_ok());
    const auto &m = result->metrics;
    EXPECT_NEAR(m.throughput,
                static_cast<double>(m.total_tokens) / m.total_time,
                1e-9);
}

TEST(Engine, TtftExceedsTbtAtLargeBatch)
{
    // Prefill processes 128 tokens per request; decode processes one.
    ServingSpec spec = small_spec();
    spec.batch = 16;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    EXPECT_GT(result->metrics.ttft, result->metrics.tbt);
}

TEST(Engine, PipelineOverlapLaw)
{
    // For interior steps, step duration ~= max(own compute + overhead,
    // next step's transfer) — Listing 1's sync semantics.
    ServingSpec spec = small_spec();
    spec.repeats = 1;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    const auto &recs = result->records;
    for (std::size_t k = 5; k + 1 < recs.size(); ++k) {
        const Seconds duration = recs[k].step_end - recs[k].step_start;
        const Seconds expect = std::max(
            recs[k].compute_time + spec.gpu.layer_overhead,
            recs[k + 1].transfer_time);
        EXPECT_NEAR(duration, expect, 1e-6)
            << "step " << k;
    }
}

TEST(Engine, OverlapSummarySkipsEmbeddingLayers)
{
    const auto result = simulate_inference(small_spec());
    ASSERT_TRUE(result.is_ok());
    const auto summary = summarize_overlap(result->records,
                                           gpu::Stage::kDecode, 1);
    EXPECT_GT(summary.avg_compute, 0.0);
    EXPECT_GT(summary.avg_transfer, 0.0);
    EXPECT_GT(summary.avg_mha_compute, 0.0);
    EXPECT_GT(summary.avg_ffn_compute, 0.0);
    EXPECT_GT(summary.mha_compute_over_ffn_load(), 0.0);
    EXPECT_GT(summary.ffn_compute_over_mha_load(), 0.0);
}

TEST(Engine, SpilledPlacementStillRuns)
{
    // A policy demanding far more GPU share than fits must spill and
    // then run cleanly.
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.policy = placement::Policy{0.0, 10.0, 90.0, false};
    spec.batch = 1;
    spec.repeats = 1;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_TRUE(result->spill.spilled());
    EXPECT_TRUE(result->budget.fits());
}

TEST(Engine, MemoryModeResidentSetApplied)
{
    // The MemoryMode host device must see the host-tier weights as its
    // working set, degrading bandwidth for the uncompressed model.
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.batch = 1;
    spec.repeats = 1;
    spec.memory = mem::ConfigKind::kMemoryMode;
    const auto mm = simulate_inference(spec);
    spec.memory = mem::ConfigKind::kDram;
    const auto dram = simulate_inference(spec);
    ASSERT_TRUE(mm.is_ok());
    ASSERT_TRUE(dram.is_ok());
    // Uncompressed OPT-175B (~300 GiB) overflows the 256 GiB cache.
    EXPECT_GT(mm->metrics.tbt, dram->metrics.tbt * 1.05);
}

} // namespace
} // namespace helm::runtime
