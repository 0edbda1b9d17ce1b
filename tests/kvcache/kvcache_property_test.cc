/**
 * @file
 * Property-based (parameterized) sweeps over the KV-cache manager: the
 * three invariants its header pins — no bounded tier ever exceeds its
 * capacity, every block is resident in exactly one tier, and identical
 * call sequences yield identical traffic and stats — must hold across
 * eviction policies and block sizes under a churny request mix.  The
 * scripts make only the engine's calls (add_request, step,
 * reset_requests) and check only what the engine reads back
 * (StepTraffic and stats()).
 */
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "kvcache/kvcache.h"
#include "model/footprint.h"
#include "model/opt.h"

namespace helm::kvcache {
namespace {

using KvCase = std::tuple<EvictionPolicy, std::uint64_t /*block_tokens*/>;

/** Three tiers under pressure: a small GPU tier, a bounded host tier,
 *  and an unbounded backstop so the script never runs out of space. */
KvCacheConfig
stress_config(EvictionPolicy eviction, std::uint64_t block_tokens,
              Bytes block_bytes)
{
    KvCacheConfig config;
    config.block_tokens = block_tokens;
    config.eviction = eviction;
    TierSpec gpu;
    gpu.name = "gpu";
    gpu.is_gpu = true;
    gpu.capacity = 4 * block_bytes;
    TierSpec fast;
    fast.name = "fast";
    fast.capacity = 8 * block_bytes;
    TierSpec slow;
    slow.name = "slow";
    config.tiers = {gpu, fast, slow};
    return config;
}

/** One scripted op: add a request, step the batch, or drop it all. */
struct Op
{
    enum Kind
    {
        kAdd,
        kStep,
        kReset
    } kind;
    std::uint64_t value; //!< id for add, new_tokens for step
    bool count_reads;
};

/** Deterministic churny script: adds, uneven growth, batch resets
 *  (after which ids restart at 0, as the engine's repeats do). */
std::vector<Op>
make_script(std::uint64_t block_tokens)
{
    Rng rng(0xC0FFEEull + block_tokens);
    std::vector<Op> script;
    std::uint64_t next_id = 0;
    for (int round = 0; round < 60; ++round) {
        const std::uint64_t dice = rng.next_below(10);
        if (next_id < 2 || (dice < 3 && next_id < 8)) {
            script.push_back({Op::kAdd, next_id++, false});
        } else if (dice == 3 && next_id > 2) {
            script.push_back({Op::kReset, 0, false});
            next_id = 0;
        } else {
            // Prefill-sized bursts and single-token decode steps.
            const bool prefill = rng.next_below(4) == 0;
            const std::uint64_t tokens =
                prefill ? block_tokens + rng.next_below(2 * block_tokens)
                        : 1;
            script.push_back({Op::kStep, tokens, !prefill});
        }
    }
    return script;
}

/** Apply @p op; a step's traffic lands in @p traffic (empty for the
 *  other ops).  @p tokens tracks each live request's context. */
void
apply(KvCacheManager &manager, const Op &op, StepTraffic *traffic,
      std::vector<std::uint64_t> *tokens)
{
    *traffic = StepTraffic{};
    switch (op.kind) {
      case Op::kAdd:
        ASSERT_TRUE(manager.add_request(op.value).is_ok());
        tokens->push_back(0);
        break;
      case Op::kStep: {
        const auto step = manager.step(op.value, op.count_reads);
        ASSERT_TRUE(step.is_ok()) << step.status().to_string();
        *traffic = *step;
        for (std::uint64_t &count : *tokens)
            count += op.value;
        break;
      }
      case Op::kReset:
        manager.reset_requests();
        tokens->clear();
        break;
    }
}

void
expect_same_stats(const KvCacheStats &a, const KvCacheStats &b)
{
    EXPECT_EQ(a.demotions, b.demotions);
    ASSERT_EQ(a.tiers.size(), b.tiers.size());
    for (std::size_t i = 0; i < a.tiers.size(); ++i) {
        const TierStats &x = a.tiers[i];
        const TierStats &y = b.tiers[i];
        EXPECT_EQ(x.occupancy, y.occupancy) << x.name;
        EXPECT_EQ(x.peak_occupancy, y.peak_occupancy) << x.name;
        EXPECT_EQ(x.blocks, y.blocks) << x.name;
        EXPECT_EQ(x.read_bytes, y.read_bytes) << x.name;
        EXPECT_EQ(x.write_bytes, y.write_bytes) << x.name;
        EXPECT_EQ(x.demoted_in_bytes, y.demoted_in_bytes) << x.name;
        EXPECT_EQ(x.lookups, y.lookups) << x.name;
    }
}

class KvCacheProperty : public ::testing::TestWithParam<KvCase>
{
};

TEST_P(KvCacheProperty, CapacityAndResidencyInvariants)
{
    const auto [eviction, block_tokens] = GetParam();
    const auto model = model::opt_config(model::OptVariant::kOpt1_3B);
    const Bytes block_bytes =
        block_tokens * model::kv_bytes_per_block(model, 1) * model.blocks;
    auto manager_or = KvCacheManager::create(
        stress_config(eviction, block_tokens, block_bytes), model);
    ASSERT_TRUE(manager_or.is_ok()) << manager_or.status().to_string();
    auto manager = *manager_or;
    ASSERT_EQ(manager.block_bytes(), block_bytes);

    StepTraffic traffic;
    std::vector<std::uint64_t> tokens;
    for (const Op &op : make_script(block_tokens)) {
        apply(manager, op, &traffic, &tokens);
        if (::testing::Test::HasFatalFailure())
            return;

        const auto &stats = manager.stats();
        std::uint64_t total_blocks = 0;
        for (std::size_t i = 0; i < manager.tier_count(); ++i) {
            const auto &tier = stats.tiers[i];
            // Occupancy is whole blocks and never exceeds the capacity.
            EXPECT_EQ(tier.occupancy, tier.blocks * manager.block_bytes());
            EXPECT_GE(tier.peak_occupancy, tier.occupancy);
            if (manager.tier(i).capacity > 0) {
                EXPECT_LE(tier.occupancy, manager.tier(i).capacity);
                EXPECT_LE(tier.peak_occupancy, manager.tier(i).capacity);
            }
            total_blocks += tier.blocks;
        }

        // Every block is resident in exactly one tier: the tiers hold
        // exactly the blocks the live requests' contexts need, no block
        // counted twice and none lost.
        std::uint64_t needed = 0;
        for (const std::uint64_t count : tokens)
            needed += manager.blocks_for_tokens(count);
        EXPECT_EQ(total_blocks, needed);
    }
}

TEST_P(KvCacheProperty, IdenticalSequencesYieldIdenticalPlacements)
{
    const auto [eviction, block_tokens] = GetParam();
    const auto model = model::opt_config(model::OptVariant::kOpt1_3B);
    const Bytes block_bytes =
        block_tokens * model::kv_bytes_per_block(model, 1) * model.blocks;
    const auto config =
        stress_config(eviction, block_tokens, block_bytes);
    auto first = KvCacheManager::create(config, model);
    auto second = KvCacheManager::create(config, model);
    ASSERT_TRUE(first.is_ok() && second.is_ok());

    // A placement shows in what the engine reads back: the per-tier
    // traffic of every step and the running stats.
    StepTraffic first_traffic, second_traffic;
    std::vector<std::uint64_t> first_tokens, second_tokens;
    for (const Op &op : make_script(block_tokens)) {
        apply(*first, op, &first_traffic, &first_tokens);
        apply(*second, op, &second_traffic, &second_tokens);
        if (::testing::Test::HasFatalFailure())
            return;
        ASSERT_EQ(first_traffic.read_bytes, second_traffic.read_bytes);
        ASSERT_EQ(first_traffic.write_bytes, second_traffic.write_bytes);
        expect_same_stats(first->stats(), second->stats());
    }
    // The scripts reach the lower tiers, so the comparison covers
    // demotion traffic, not only GPU appends.
    EXPECT_GT(first->stats().demotions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, KvCacheProperty,
    ::testing::Combine(
        ::testing::Values(EvictionPolicy::kLru,
                          EvictionPolicy::kLongestContextFirst),
        ::testing::Values(8ull, 16ull, 64ull)),
    [](const ::testing::TestParamInfo<KvCase> &info) {
        const EvictionPolicy eviction = std::get<0>(info.param);
        return std::string(eviction == EvictionPolicy::kLru
                               ? "Lru"
                               : "LongestContext") +
               "Block" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace helm::kvcache
