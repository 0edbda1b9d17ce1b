/**
 * @file
 * Unit tests for the tiered KV-cache manager (kvcache/kvcache.h):
 * configuration validation, block geometry, per-step traffic
 * accounting, and eviction/demotion for both policies — each observed
 * through the calls the engine makes (add_request, step,
 * reset_requests) and what it reads back (StepTraffic, stats()).
 */
#include <gtest/gtest.h>

#include "kvcache/kvcache.h"
#include "model/footprint.h"
#include "model/opt.h"

namespace helm::kvcache {
namespace {

model::TransformerConfig
small_model()
{
    return model::opt_config(model::OptVariant::kOpt1_3B);
}

/** Bytes of K+V for one token of one decoder block (the test model). */
Bytes
token_layer()
{
    return model::kv_bytes_per_block(small_model(), 1);
}

/** Whole-model bytes of one full block_tokens=16 block. */
Bytes
one_block()
{
    return 16 * token_layer() * small_model().blocks;
}

/** gpu tier of @p gpu_blocks blocks backed by one unbounded host tier. */
KvCacheConfig
two_tier(std::uint64_t gpu_blocks,
         EvictionPolicy eviction = EvictionPolicy::kLru)
{
    KvCacheConfig config;
    TierSpec gpu;
    gpu.name = "gpu";
    gpu.is_gpu = true;
    gpu.capacity = gpu_blocks * one_block();
    TierSpec host;
    host.name = "host";
    config.tiers = {gpu, host};
    config.eviction = eviction;
    return config;
}

KvCacheManager
make_manager(const KvCacheConfig &config)
{
    auto manager = KvCacheManager::create(config, small_model());
    EXPECT_TRUE(manager.is_ok()) << manager.status().to_string();
    return *manager;
}

// ---------------------------------------------------------------------
// Configuration validation
// ---------------------------------------------------------------------

TEST(KvCacheConfig, ValidateRejectsBadShapes)
{
    KvCacheConfig config = KvCacheConfig::tiered();

    config.block_tokens = 0;
    EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);

    config = KvCacheConfig{};
    EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);

    // The GPU tier must come first (it is the allocation preference).
    config = KvCacheConfig::tiered();
    std::swap(config.tiers[0], config.tiers[1]);
    EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);

    // auto_capacity is a GPU-tier-only knob.
    config = KvCacheConfig::legacy_offload();
    config.tiers[0].auto_capacity = true;
    EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);

    config = KvCacheConfig::tiered();
    config.tiers[1].name = "gpu";
    EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);

    config = KvCacheConfig::legacy_offload();
    config.tiers[0].name.clear();
    EXPECT_EQ(config.validate().code(), StatusCode::kInvalidArgument);
}

TEST(KvCacheConfig, FactoryConfigsValidate)
{
    EXPECT_TRUE(KvCacheConfig::gpu_only().validate().is_ok());
    EXPECT_TRUE(KvCacheConfig::legacy_offload().validate().is_ok());
    EXPECT_TRUE(KvCacheConfig::tiered().validate().is_ok());
    EXPECT_TRUE(KvCacheConfig::tiered(4 * kGiB).validate().is_ok());

    const auto tiered = KvCacheConfig::tiered(4 * kGiB);
    ASSERT_EQ(tiered.tiers.size(), 2u);
    EXPECT_TRUE(tiered.tiers[0].is_gpu);
    EXPECT_TRUE(tiered.tiers[0].auto_capacity);
    EXPECT_EQ(tiered.tiers[1].capacity, 4 * kGiB);
}

TEST(KvCacheConfig, ParseEvictionPolicyRoundTrips)
{
    for (auto policy : {EvictionPolicy::kLru,
                        EvictionPolicy::kLongestContextFirst}) {
        const auto parsed =
            parse_eviction_policy(eviction_policy_name(policy));
        ASSERT_TRUE(parsed.is_ok());
        EXPECT_EQ(*parsed, policy);
    }
    const auto alias = parse_eviction_policy("longest");
    ASSERT_TRUE(alias.is_ok());
    EXPECT_EQ(*alias, EvictionPolicy::kLongestContextFirst);
    EXPECT_EQ(parse_eviction_policy("mru").status().code(),
              StatusCode::kNotFound);
}

TEST(KvCacheManager, CreateRejectsHostTierSmallerThanOneBlock)
{
    KvCacheConfig config = KvCacheConfig::legacy_offload();
    config.tiers[0].capacity = one_block() - 1;
    EXPECT_EQ(KvCacheManager::create(config, small_model()).status().code(),
              StatusCode::kInvalidArgument);

    // A GPU tier squeezed below one block is fine — it just never holds
    // KV (the planner may leave less than a block of free HBM).
    config = KvCacheConfig::tiered();
    config.tiers[0].auto_capacity = false;
    config.tiers[0].capacity = 1;
    EXPECT_TRUE(KvCacheManager::create(config, small_model()).is_ok());
}

// ---------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------

TEST(KvCacheManager, BlockGeometryMatchesFootprintMath)
{
    auto manager = make_manager(KvCacheConfig::legacy_offload());
    EXPECT_EQ(manager.block_bytes(), one_block());
    EXPECT_EQ(manager.blocks_for_tokens(0), 0u);
    EXPECT_EQ(manager.blocks_for_tokens(1), 1u);
    EXPECT_EQ(manager.blocks_for_tokens(16), 1u);
    EXPECT_EQ(manager.blocks_for_tokens(17), 2u);
    // One token's K+V for one MHA layer is what a step moves per token.
    ASSERT_TRUE(manager.add_request(0).is_ok());
    const auto traffic = manager.step(1, /*count_reads=*/false);
    ASSERT_TRUE(traffic.is_ok());
    EXPECT_EQ(traffic->write_bytes[0], token_layer());
}

TEST(KvCacheManager, RequestSlotsFromBoundedTiers)
{
    KvCacheConfig config = two_tier(10);
    config.tiers[1].capacity = 5 * one_block();
    const auto manager = make_manager(config);
    // 15 blocks total, 2 blocks per 32-token request -> 7 slots.
    EXPECT_EQ(manager.request_slots(32), 7u);
    EXPECT_EQ(manager.request_slots(32, 3), 3u);
    // An unbounded tier absorbs any context: the limit is returned.
    EXPECT_EQ(make_manager(two_tier(10)).request_slots(32), 4096u);
}

// ---------------------------------------------------------------------
// Step traffic
// ---------------------------------------------------------------------

TEST(KvCacheManager, GpuOnlyStepMovesNoBytes)
{
    auto manager = make_manager(KvCacheConfig::gpu_only());
    ASSERT_TRUE(manager.add_request(0).is_ok());
    ASSERT_TRUE(manager.add_request(1).is_ok());

    const auto prefill = manager.step(16, /*count_reads=*/false);
    ASSERT_TRUE(prefill.is_ok());
    const auto decode = manager.step(1, /*count_reads=*/true);
    ASSERT_TRUE(decode.is_ok());

    EXPECT_EQ(prefill->write_bytes[0], 0u);
    EXPECT_EQ(decode->read_bytes[0], 0u);
    EXPECT_EQ(decode->write_bytes[0], 0u);
    EXPECT_EQ(manager.stats().tiers[0].read_bytes, 0u);
    EXPECT_EQ(manager.stats().tiers[0].write_bytes, 0u);
    // Occupancy is still tracked: 2 requests x 2 blocks (17 tokens).
    EXPECT_EQ(manager.stats().tiers[0].blocks, 4u);
}

TEST(KvCacheManager, LegacyOffloadMatchesWholeCacheFormulas)
{
    auto manager = make_manager(KvCacheConfig::legacy_offload());
    const std::uint64_t batch = 3, prompt = 32;
    for (std::uint64_t id = 0; id < batch; ++id)
        ASSERT_TRUE(manager.add_request(id).is_ok());

    // Prefill: every new K/V entry drains to the host, nothing is read
    // back (the attention inputs were just computed on the GPU).
    const auto prefill = manager.step(prompt, /*count_reads=*/false);
    ASSERT_TRUE(prefill.is_ok());
    EXPECT_EQ(prefill->write_bytes[0], batch * prompt * token_layer());
    EXPECT_EQ(prefill->read_bytes[0], 0u);

    // Decode: one appended token per request plus the full context
    // streamed back in — the whole-cache offload byte equation.
    const auto decode = manager.step(1, /*count_reads=*/true);
    ASSERT_TRUE(decode.is_ok());
    EXPECT_EQ(decode->write_bytes[0], batch * token_layer());
    EXPECT_EQ(decode->read_bytes[0],
              batch * (prompt + 1) * token_layer());

    // Lifetime stats scale the per-layer traffic by every MHA layer.
    EXPECT_EQ(manager.stats().tiers[0].write_bytes,
              batch * (prompt + 1) * token_layer() *
                  small_model().blocks);
}

// ---------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------

TEST(KvCacheManager, LruEvictionDemotesOldestBlocks)
{
    auto manager = make_manager(two_tier(2));
    ASSERT_TRUE(manager.add_request(0).is_ok());
    ASSERT_TRUE(manager.step(32, false).is_ok()); // fills the GPU tier

    // Two more blocks: each allocation demotes the least-recently
    // written block so the fresh (hot) one lands on the GPU.
    const auto traffic = manager.step(32, false);
    ASSERT_TRUE(traffic.is_ok());
    EXPECT_EQ(manager.stats().demotions, 2u);
    // The demoted blocks carry their valid tokens down the hierarchy...
    EXPECT_EQ(traffic->write_bytes[1], 32 * token_layer());
    EXPECT_EQ(manager.stats().tiers[1].demoted_in_bytes,
              32 * token_layer() * small_model().blocks);
    // ...and the appends themselves hit the GPU tier, which is free.
    EXPECT_EQ(manager.stats().tiers[1].write_bytes, 0u);
    EXPECT_EQ(manager.stats().tiers[0].blocks, 2u);
    EXPECT_EQ(manager.stats().tiers[1].blocks, 2u);

    // A decode read streams back exactly the two oldest (demoted)
    // blocks: the first 32 tokens of the 64-token context.
    const auto decode = manager.step(0, /*count_reads=*/true);
    ASSERT_TRUE(decode.is_ok());
    EXPECT_EQ(decode->read_bytes[0], 0u);
    EXPECT_EQ(decode->read_bytes[1], 32 * token_layer());
}

TEST(KvCacheManager, LongestContextFirstSparesShortRequests)
{
    // Two requests on a 2-block GPU tier: r0 and r1 each place 12
    // tokens, then 8 more each.  r0's append fills its block and needs
    // a second one, which pushes r0 ahead (16 vs 12 tokens) at the
    // moment a victim is picked.
    auto run = [](EvictionPolicy eviction) {
        auto manager = make_manager(two_tier(2, eviction));
        EXPECT_TRUE(manager.add_request(0).is_ok());
        EXPECT_TRUE(manager.add_request(1).is_ok());
        EXPECT_TRUE(manager.step(12, /*count_reads=*/true).is_ok());
        auto traffic = manager.step(8, /*count_reads=*/true);
        EXPECT_TRUE(traffic.is_ok());
        EXPECT_EQ(manager.stats().demotions, 2u);
        return *traffic;
    };
    // Longest-context-first takes both victims from r0, so the host
    // holds r0's whole 20-token context and r1 (16 tokens) stays on
    // the GPU: the decode read is r0's context and nothing of r1's.
    const StepTraffic longest = run(EvictionPolicy::kLongestContextFirst);
    EXPECT_EQ(longest.read_bytes[1], 20 * token_layer());
    EXPECT_EQ(longest.write_bytes[1], 20 * token_layer());
    // LRU instead demotes r1's older 12-token block first, then r0's
    // full one: 32 host tokens, r1 among them.
    const StepTraffic lru = run(EvictionPolicy::kLru);
    EXPECT_EQ(lru.read_bytes[1], 32 * token_layer());
    EXPECT_EQ(lru.write_bytes[1], 32 * token_layer());
}

// ---------------------------------------------------------------------
// Capacity and lifecycle
// ---------------------------------------------------------------------

TEST(KvCacheManager, CanGrowAndCapacityExceeded)
{
    KvCacheConfig config = two_tier(2);
    config.tiers[1].capacity = 2 * one_block();
    auto manager = make_manager(config);
    ASSERT_TRUE(manager.add_request(0).is_ok());

    // Both tiers hold two blocks: 64 tokens fit, the 65th does not.
    ASSERT_TRUE(manager.step(4 * 16, false).is_ok());
    EXPECT_EQ(manager.step(1, false).status().code(),
              StatusCode::kCapacityExceeded);
}

TEST(KvCacheManager, PeakOccupancyNeverExceedsCapacity)
{
    auto manager = make_manager(two_tier(2));
    ASSERT_TRUE(manager.add_request(0).is_ok());
    ASSERT_TRUE(manager.step(128, false).is_ok());
    EXPECT_EQ(manager.stats().tiers[0].peak_occupancy, 2 * one_block());
    EXPECT_EQ(manager.tier_occupancy(0), 2 * one_block());
    EXPECT_EQ(manager.tier_occupancy(1), 6 * one_block());
}

TEST(KvCacheManager, ResetClearsResidencyButKeepsTraffic)
{
    auto manager = make_manager(KvCacheConfig::legacy_offload());
    ASSERT_TRUE(manager.add_request(7).is_ok());
    ASSERT_TRUE(manager.step(16, false).is_ok());
    const Bytes written = manager.stats().tiers[0].write_bytes;
    EXPECT_GT(written, 0u);

    manager.reset_requests();
    EXPECT_EQ(manager.stats().tiers[0].blocks, 0u);
    EXPECT_EQ(manager.tier_occupancy(0), 0u);
    EXPECT_EQ(manager.stats().tiers[0].write_bytes, written);
    EXPECT_TRUE(manager.add_request(7).is_ok()); // id is free again
}

TEST(KvCacheManager, RequestLifecycleErrors)
{
    auto manager = make_manager(KvCacheConfig::gpu_only());
    ASSERT_TRUE(manager.add_request(0).is_ok());
    EXPECT_EQ(manager.add_request(0).code(),
              StatusCode::kInvalidArgument);
    manager.reset_requests();
    EXPECT_TRUE(manager.add_request(0).is_ok());
}

} // namespace
} // namespace helm::kvcache
