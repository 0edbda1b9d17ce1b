/**
 * @file
 * Unit tests for the block schedule (micro-batches) and KV-cache
 * offloading extensions of the engine.
 */
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "model/opt.h"
#include "runtime/engine.h"
#include "runtime/schedule.h"

namespace helm::runtime {
namespace {

using model::OptVariant;
using placement::PlacementKind;

ServingSpec
base_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt6_7B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = PlacementKind::kAllCpu;
    spec.batch = 2;
    spec.repeats = 2;
    return spec;
}

TEST(BlockSchedule, RejectsZeroMicroBatches)
{
    ServingSpec spec = base_spec();
    spec.micro_batches = 0;
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(BlockSchedule, TokensScaleWithMicroBatches)
{
    ServingSpec spec = base_spec();
    spec.micro_batches = 4;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->metrics.total_tokens,
              spec.repeats * spec.batch * 4 * spec.shape.output_tokens);
}

TEST(BlockSchedule, AmortizesWeightTransfers)
{
    // Transfer-bound config: 4 micro-batches move 4x the tokens per
    // weight load, so throughput must rise substantially while TBT
    // rises by far less than 4x.
    ServingSpec spec = base_spec();
    spec.micro_batches = 1;
    const auto m1 = simulate_inference(spec);
    spec.micro_batches = 4;
    const auto m4 = simulate_inference(spec);
    ASSERT_TRUE(m1.is_ok());
    ASSERT_TRUE(m4.is_ok());
    EXPECT_GT(m4->metrics.throughput, 1.5 * m1->metrics.throughput);
    EXPECT_LT(m4->metrics.tbt, 4.0 * m1->metrics.tbt);
}

TEST(BlockSchedule, ComputeTimeScalesWithMicroBatches)
{
    ServingSpec spec = base_spec();
    spec.micro_batches = 1;
    const auto m1 = simulate_inference(spec);
    spec.micro_batches = 3;
    const auto m3 = simulate_inference(spec);
    ASSERT_TRUE(m1.is_ok());
    ASSERT_TRUE(m3.is_ok());
    EXPECT_NEAR(m3->records[10].compute_time,
                3.0 * m1->records[10].compute_time, 1e-9);
    // Weight bytes per step are unchanged — that is the amortization.
    EXPECT_EQ(m3->records[10].transfer_bytes,
              m1->records[10].transfer_bytes);
}

TEST(BlockSchedule, KvBudgetScalesWithEffectiveBatch)
{
    ServingSpec spec = base_spec();
    spec.micro_batches = 1;
    const auto m1 = simulate_inference(spec);
    spec.micro_batches = 4;
    const auto m4 = simulate_inference(spec);
    ASSERT_TRUE(m1.is_ok());
    ASSERT_TRUE(m4.is_ok());
    EXPECT_EQ(m4->budget.kv_cache, 4 * m1->budget.kv_cache);
}

TEST(BlockSchedule, CapacityLimitsMicroBatches)
{
    // OPT-175B All-CPU compressed fits 44 requests; 8 x 8 = 64 must be
    // rejected while 8 x 5 = 40 passes.
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = PlacementKind::kAllCpu;
    spec.compress_weights = true;
    spec.batch = 8;
    spec.repeats = 1;
    spec.micro_batches = 8;
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kCapacityExceeded);
    spec.micro_batches = 5;
    EXPECT_TRUE(simulate_inference(spec).is_ok());
}

TEST(KvOffload, FreesGpuKvBudget)
{
    ServingSpec spec = base_spec();
    spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    const auto off = simulate_inference(spec);
    spec.kv_cache.reset();
    const auto on = simulate_inference(spec);
    ASSERT_TRUE(off.is_ok());
    ASSERT_TRUE(on.is_ok());
    EXPECT_LT(off->budget.kv_cache, on->budget.kv_cache);
}

TEST(KvOffload, EnablesOtherwiseImpossibleBatches)
{
    // OPT-175B compressed All-CPU caps at 44 with the cache on the GPU;
    // offloading the cache must admit far more.
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kDram;
    spec.placement = PlacementKind::kAllCpu;
    spec.compress_weights = true;
    spec.batch = 128;
    spec.repeats = 1;
    spec.kv_cache.reset();
    EXPECT_EQ(simulate_inference(spec).status().code(),
              StatusCode::kCapacityExceeded);
    spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    const auto result = simulate_inference(spec);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
}

TEST(KvOffload, MhaLayersCarryKvTraffic)
{
    ServingSpec spec = base_spec();
    spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    bool saw_read = false, saw_write = false;
    for (const auto &rec : result->records) {
        if (rec.type == model::LayerType::kMha) {
            if (rec.stage == gpu::Stage::kDecode) {
                EXPECT_GT(rec.kv_read_bytes, 0u);
                saw_read = true;
            }
            EXPECT_GT(rec.kv_write_bytes, 0u);
            saw_write = true;
            // Decode reads grow with the context.
        } else {
            EXPECT_EQ(rec.kv_read_bytes, 0u);
            EXPECT_EQ(rec.kv_write_bytes, 0u);
        }
    }
    EXPECT_TRUE(saw_read);
    EXPECT_TRUE(saw_write);

    // The compiled schedule stores that traffic once per (rep, token):
    // its MHA steps share one kv_traffic row, other steps have none.
    static_assert(sizeof(ScheduledStep) <= 128,
                  "KV flow lists belong in the per-token table");
    const auto compiled = compile_schedule(spec);
    ASSERT_TRUE(compiled.is_ok());
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> rows;
    for (const ScheduledStep &step : compiled->steps) {
        if (step.type != model::LayerType::kMha) {
            EXPECT_EQ(step.kv, kNoKv);
            EXPECT_TRUE(compiled->kv_reads(step).empty());
            EXPECT_TRUE(compiled->kv_writes(step).empty());
            EXPECT_TRUE(compiled->kv_occupancy(step).empty());
            continue;
        }
        ASSERT_NE(step.kv, kNoKv);
        ASSERT_LT(step.kv, compiled->kv_traffic.size());
        const auto row =
            rows.emplace(std::make_pair(step.batch_index, step.token), step.kv)
                .first;
        EXPECT_EQ(step.kv, row->second);
        Bytes read_sum = 0, write_sum = 0;
        for (const KvFlowSpec &flow : compiled->kv_reads(step))
            read_sum += flow.bytes;
        for (const KvFlowSpec &flow : compiled->kv_writes(step))
            write_sum += flow.bytes;
        EXPECT_EQ(compiled->kv_read_bytes(step), read_sum);
        EXPECT_EQ(compiled->kv_write_bytes(step), write_sum);
    }
    EXPECT_EQ(rows.size(), spec.repeats * spec.shape.output_tokens);
}

TEST(KvOffload, DecodeReadsGrowWithContext)
{
    ServingSpec spec = base_spec();
    spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    Bytes early = 0, late = 0;
    for (const auto &rec : result->records) {
        if (rec.type != model::LayerType::kMha || rec.batch_index != 1)
            continue;
        if (rec.token == 1)
            early = std::max(early, rec.kv_read_bytes);
        if (rec.token == spec.shape.output_tokens - 1)
            late = std::max(late, rec.kv_read_bytes);
    }
    EXPECT_GT(late, early);
}

TEST(KvOffload, SlowsDecodeOnNvdram)
{
    // Streaming the context every step costs latency — the tradeoff the
    // related-work KV papers attack (Sec. VI).
    ServingSpec spec = base_spec();
    spec.kv_cache.reset();
    const auto on_gpu = simulate_inference(spec);
    spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    const auto offloaded = simulate_inference(spec);
    ASSERT_TRUE(on_gpu.is_ok());
    ASSERT_TRUE(offloaded.is_ok());
    EXPECT_GE(offloaded->metrics.tbt, on_gpu->metrics.tbt);
}

TEST(KvOffload, PrefillWritebackHurtsMostOnOptane)
{
    // Fig. 3b's 3.26 GB/s write ceiling: the prefill KV writeback is far
    // more painful on NVDRAM than on DRAM.
    ServingSpec spec = base_spec();
    spec.batch = 16;
    spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    spec.memory = mem::ConfigKind::kNvdram;
    const auto nvdram = simulate_inference(spec);
    spec.memory = mem::ConfigKind::kDram;
    const auto dram = simulate_inference(spec);
    ASSERT_TRUE(nvdram.is_ok());
    ASSERT_TRUE(dram.is_ok());
    const double ttft_gap =
        nvdram->metrics.ttft / dram->metrics.ttft;
    // Without offload this config's TTFT gap is ~1.2x (h2d only); the
    // writeback at ~2-3 GB/s vs 26 GB/s must widen it clearly.
    spec.kv_cache.reset();
    spec.memory = mem::ConfigKind::kNvdram;
    const auto nv_no_offload = simulate_inference(spec);
    spec.memory = mem::ConfigKind::kDram;
    const auto dram_no_offload = simulate_inference(spec);
    ASSERT_TRUE(nv_no_offload.is_ok());
    ASSERT_TRUE(dram_no_offload.is_ok());
    const double baseline_gap = nv_no_offload->metrics.ttft /
                                dram_no_offload->metrics.ttft;
    EXPECT_GT(ttft_gap, baseline_gap * 1.05);
    EXPECT_GT(ttft_gap, 1.25);
}

} // namespace
} // namespace helm::runtime
