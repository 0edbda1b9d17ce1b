/**
 * @file
 * Engine + scheduler integration tests for the tiered KV cache:
 * bit-for-bit goldens pinning the resident and legacy_offload paths, the
 * NVDRAM write-ceiling bound on the managed writeback, prefetch-off
 * stall accounting, the chrome-trace KV track, and the admission-side
 * batch/shedding behavior.
 */
#include <gtest/gtest.h>

#include "model/footprint.h"
#include "model/opt.h"
#include "runtime/engine.h"
#include "runtime/scheduler.h"
#include "runtime/trace.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

ServingSpec
opt67b_spec(bool offload, std::uint64_t batch)
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt6_7B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.batch = batch;
    spec.repeats = 2;
    if (offload)
        spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    return spec;
}

RunResult
run_or_fail(const ServingSpec &spec)
{
    auto result = simulate_inference(spec);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return *result;
}

Bytes
total_kv_read(const RunResult &result)
{
    Bytes bytes = 0;
    for (const auto &rec : result.records)
        bytes += rec.kv_read_bytes;
    return bytes;
}

Bytes
total_kv_write(const RunResult &result)
{
    Bytes bytes = 0;
    for (const auto &rec : result.records)
        bytes += rec.kv_write_bytes;
    return bytes;
}

/** A managed config that forces demotions on OPT-6.7B: a GPU tier of
 *  @p gpu_blocks blocks backed by an unbounded host tier. */
kvcache::KvCacheConfig
tight_tiered(std::uint64_t gpu_blocks, bool prefetch = true)
{
    const auto model = model::opt_config(OptVariant::kOpt6_7B);
    const Bytes block_bytes =
        16 * model::kv_bytes_per_block(model, 1) * model.blocks;
    auto config = kvcache::KvCacheConfig::tiered();
    config.tiers[0].auto_capacity = false;
    config.tiers[0].capacity = gpu_blocks * block_bytes;
    config.prefetch = prefetch;
    return config;
}

// ---------------------------------------------------------------------
// Bit-for-bit goldens: the HBM-resident and whole-cache-offload paths
// must not move, even though both run through the KvCacheManager.  Values
// captured from the seed engine (OPT-6.7B, NVDRAM, All-CPU, repeats 2,
// paper shape 128/21) at full double precision.
// ---------------------------------------------------------------------

TEST(KvCacheGolden, GpuResidentBatch4)
{
    const auto result = run_or_fail(opt67b_spec(false, 4));
    EXPECT_DOUBLE_EQ(result.metrics.ttft, 0.69851047063023763);
    EXPECT_DOUBLE_EQ(result.metrics.tbt, 0.69745220558922338);
    EXPECT_DOUBLE_EQ(result.metrics.total_time, 29.338081634818529);
    EXPECT_DOUBLE_EQ(result.metrics.throughput, 5.7263457812666614);
    EXPECT_EQ(total_kv_read(result), 0u);
    EXPECT_EQ(total_kv_write(result), 0u);
}

TEST(KvCacheGolden, OffloadBatch4)
{
    const auto result = run_or_fail(opt67b_spec(true, 4));
    EXPECT_DOUBLE_EQ(result.metrics.ttft, 0.69868648861272398);
    EXPECT_DOUBLE_EQ(result.metrics.tbt, 0.70691820135820849);
    EXPECT_DOUBLE_EQ(result.metrics.total_time, 29.717084491940515);
    EXPECT_DOUBLE_EQ(result.metrics.throughput, 5.6533136703084983);
    EXPECT_EQ(total_kv_read(result), 11618222080u);
    EXPECT_EQ(total_kv_write(result), 620756992u);
}

TEST(KvCacheGolden, OffloadBatch32)
{
    const auto result = run_or_fail(opt67b_spec(true, 32));
    EXPECT_DOUBLE_EQ(result.metrics.ttft, 1.3035037039575101);
    EXPECT_DOUBLE_EQ(result.metrics.tbt, 0.77290857573917704);
    EXPECT_DOUBLE_EQ(result.metrics.total_time, 33.566045517918269);
    EXPECT_DOUBLE_EQ(result.metrics.throughput, 40.040462892256528);
    EXPECT_EQ(total_kv_read(result), 92945776640u);
    EXPECT_EQ(total_kv_write(result), 4966055936u);
}

// ---------------------------------------------------------------------
// An explicit gpu_only() config reproduces the unset default.
// ---------------------------------------------------------------------

TEST(KvCacheShim, ExplicitGpuOnlyMatchesDefault)
{
    const auto via_default = run_or_fail(opt67b_spec(false, 4));
    auto spec = opt67b_spec(false, 4);
    spec.kv_cache = kvcache::KvCacheConfig::gpu_only();
    const auto via_config = run_or_fail(spec);

    EXPECT_DOUBLE_EQ(via_config.metrics.ttft, via_default.metrics.ttft);
    EXPECT_DOUBLE_EQ(via_config.metrics.total_time,
                     via_default.metrics.total_time);
    EXPECT_EQ(total_kv_read(via_config), 0u);
    EXPECT_EQ(total_kv_write(via_config), 0u);
}

// ---------------------------------------------------------------------
// Managed-tier behavior on the engine timeline.
// ---------------------------------------------------------------------

TEST(KvCacheEngine, WritebackRespectsNvdramWriteCeiling)
{
    // 4 requests x 8 blocks of prompt against an 8-block GPU tier:
    // most of the cache demotes to the NVDRAM host tier, and every
    // writeback drain must stay under Optane's 3.26 GB/s (Fig. 3b).
    auto spec = opt67b_spec(false, 4);
    spec.kv_cache = tight_tiered(8);
    const auto result = run_or_fail(spec);

    EXPECT_GT(result.kv_stats.demotions, 0u);
    ASSERT_EQ(result.kv_stats.tiers.size(), 2u);
    EXPECT_GT(result.kv_stats.tiers[1].read_bytes, 0u);

    bool saw_write = false;
    for (const auto &rec : result.records) {
        if (rec.kv_write_time <= 0.0 || rec.kv_write_bytes == 0)
            continue;
        saw_write = true;
        const double rate =
            static_cast<double>(rec.kv_write_bytes) / rec.kv_write_time;
        EXPECT_LE(rate, 3.26e9 * (1.0 + 1e-6));
    }
    EXPECT_TRUE(saw_write);
}

TEST(KvCacheEngine, PrefetchOffExposesContextFetchStall)
{
    auto overlapped = opt67b_spec(false, 4);
    overlapped.kv_cache = tight_tiered(8, /*prefetch=*/true);
    const auto with_prefetch = run_or_fail(overlapped);

    auto exposed = opt67b_spec(false, 4);
    exposed.kv_cache = tight_tiered(8, /*prefetch=*/false);
    const auto without_prefetch = run_or_fail(exposed);

    Seconds stall = 0.0;
    for (const auto &rec : without_prefetch.records)
        stall += rec.kv_stall_time;
    EXPECT_GT(stall, 0.0);
    for (const auto &rec : with_prefetch.records)
        EXPECT_EQ(rec.kv_stall_time, 0.0);
    // Blocking on the fetch can only slow the run down.
    EXPECT_GE(without_prefetch.metrics.total_time,
              with_prefetch.metrics.total_time);
}

TEST(KvCacheEngine, ChromeTraceCarriesKvTrack)
{
    auto spec = opt67b_spec(true, 2);
    const auto offloaded = run_or_fail(spec);
    const std::string trace = chrome_trace_json(offloaded.records);
    EXPECT_NE(trace.find("KV host"), std::string::npos);
    EXPECT_NE(trace.find("kv-read"), std::string::npos);
    EXPECT_NE(trace.find("kv-write"), std::string::npos);

    const auto resident = run_or_fail(opt67b_spec(false, 2));
    const std::string quiet = chrome_trace_json(resident.records);
    EXPECT_EQ(quiet.find("KV "), std::string::npos);
    EXPECT_EQ(quiet.find("kv-read"), std::string::npos);
}

// ---------------------------------------------------------------------
// Admission: managed tiering beats the GPU-resident batch ceiling and
// sheds requests whose padded context can never fit bounded tiers.
// ---------------------------------------------------------------------

TEST(KvCacheScheduler, TieredAdmitsLargerBatchThanResident)
{
    ServingSpec base;
    base.model = model::opt_config(OptVariant::kOpt175B);
    base.memory = mem::ConfigKind::kNvdram;
    base.placement = placement::PlacementKind::kAllCpu;
    base.compress_weights = true;
    base.batch = 1;

    const auto resident = Server::create(base);
    ASSERT_TRUE(resident.is_ok()) << resident.status().to_string();
    EXPECT_EQ(resident->effective_max_batch(), 44u);

    base.kv_cache = kvcache::KvCacheConfig::tiered();
    const auto tiered = Server::create(base);
    ASSERT_TRUE(tiered.is_ok()) << tiered.status().to_string();
    EXPECT_EQ(tiered->effective_max_batch(), 1158u);
    EXPECT_GT(tiered->effective_max_batch(),
              resident->effective_max_batch());
    // The default tiered config's host tier is unbounded: no KV
    // admission limit applies.
    EXPECT_EQ(tiered->kv_request_slots(), 0u);
}

TEST(KvCacheScheduler, ShedsRequestsThatCanNeverFit)
{
    ServingSpec base;
    base.model = model::opt_config(OptVariant::kOpt1_3B);
    base.memory = mem::ConfigKind::kNvdram;
    base.placement = placement::PlacementKind::kAllCpu;
    const Bytes block_bytes =
        16 * model::kv_bytes_per_block(base.model, 1) * base.model.blocks;
    // One bounded host tier of 40 blocks: a paper-shape request (149
    // padded tokens = 10 blocks) fits, a 2048-token prompt never does.
    auto config = kvcache::KvCacheConfig::legacy_offload();
    config.tiers[0].capacity = 40 * block_bytes;
    base.kv_cache = config;

    auto server = Server::create(base);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    EXPECT_EQ(server->kv_request_slots(), 4u);

    ASSERT_TRUE(server->submit(workload::Request{0, 2048, 21}, 0.0).is_ok());
    for (std::uint64_t id = 1; id <= 3; ++id) {
        ASSERT_TRUE(
            server->submit(workload::Request{id, 128, 21}, 0.0).is_ok());
    }
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report->completed, 3u);
    EXPECT_EQ(report->rejected, 1u);
    EXPECT_EQ(report->kv_rejected, 1u);
    ASSERT_EQ(report->rejected_ids.size(), 1u);
    EXPECT_EQ(report->rejected_ids[0], 0u);
}

} // namespace
} // namespace helm::runtime
