/**
 * @file
 * Unit tests for the QoS auto-tuner: its candidate grid and the best-of
 * reduction under an objective and a TBT ceiling.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "model/opt.h"
#include "sweep/tuner.h"

namespace helm::sweep {
namespace {

using model::OptVariant;

class TunerTest : public ::testing::Test
{
  protected:
    TuneRequest
    request(TuneObjective objective) const
    {
        TuneRequest req;
        req.model = model::opt_config(OptVariant::kOpt13B);
        req.memory = mem::ConfigKind::kNvdram;
        req.objective = objective;
        req.batch_limit = 16; // keep the test fast
        req.explore_kv_offload = false;
        return req;
    }
};

TEST_F(TunerTest, ThroughputObjectivePicksLargeBatch)
{
    const auto result = auto_tune(request(TuneObjective::kThroughput));
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_GT(result->best.spec.batch, 8u);
    EXPECT_FALSE(result->explored.empty());
    // The best candidate must dominate every explored one.
    for (const auto &c : result->explored) {
        EXPECT_GE(result->best.metrics.throughput,
                  c.metrics.throughput - 1e-9);
    }
}

TEST_F(TunerTest, LatencyObjectivePicksABalancedSchemeAtBatchOne)
{
    const auto result = auto_tune(request(TuneObjective::kLatency));
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result->best.spec.batch, 1u);
    // A pipeline-balancing scheme must win the latency objective —
    // either HeLM or the profile-guided Balanced that refines it.
    EXPECT_TRUE(result->best.spec.placement ==
                    placement::PlacementKind::kHelm ||
                result->best.spec.placement ==
                    placement::PlacementKind::kBalanced)
        << result->best.describe();
}

TEST_F(TunerTest, QosCeilingFiltersCandidates)
{
    // First find the unconstrained latency optimum, then demand it.
    auto unconstrained = auto_tune(request(TuneObjective::kLatency));
    ASSERT_TRUE(unconstrained.is_ok());
    const Seconds best_tbt = unconstrained->best.metrics.tbt;

    TuneRequest req = request(TuneObjective::kThroughput);
    req.tbt_ceiling = best_tbt * 1.05;
    const auto constrained = auto_tune(req);
    ASSERT_TRUE(constrained.is_ok());
    EXPECT_LE(constrained->best.metrics.tbt, *req.tbt_ceiling);
    // The constrained throughput cannot exceed the unconstrained one.
    TuneRequest free_req = request(TuneObjective::kThroughput);
    const auto free_run = auto_tune(free_req);
    ASSERT_TRUE(free_run.is_ok());
    EXPECT_LE(constrained->best.metrics.throughput,
              free_run->best.metrics.throughput + 1e-9);
}

TEST_F(TunerTest, ImpossibleQosFails)
{
    TuneRequest req = request(TuneObjective::kLatency);
    req.tbt_ceiling = 1e-6; // one microsecond TBT: impossible
    const auto result = auto_tune(req);
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(TunerTest, RejectsEmptyModel)
{
    TuneRequest req = request(TuneObjective::kLatency);
    req.model = model::TransformerConfig{};
    EXPECT_EQ(auto_tune(req).status().code(),
              StatusCode::kInvalidArgument);
}

TEST_F(TunerTest, ExploredSortedByObjective)
{
    const auto result = auto_tune(request(TuneObjective::kThroughput));
    ASSERT_TRUE(result.is_ok());
    for (std::size_t i = 1; i < result->explored.size(); ++i) {
        EXPECT_GE(result->explored[i - 1].metrics.throughput,
                  result->explored[i].metrics.throughput - 1e-9);
    }
}

TEST_F(TunerTest, MicroBatchesExpandTheFrontier)
{
    // Micro-batched candidates are searched next to single-batch ones,
    // and the best plan is at least the best single-batch plan.
    const auto result = auto_tune(request(TuneObjective::kThroughput));
    ASSERT_TRUE(result.is_ok());
    double single_best = 0.0;
    std::size_t micro = 0;
    for (const auto &c : result->explored) {
        if (c.spec.micro_batches == 1)
            single_best = std::max(single_best, c.metrics.throughput);
        else
            ++micro;
    }
    EXPECT_GT(micro, 0u);
    EXPECT_GT(single_best, 0.0);
    EXPECT_GE(result->best.metrics.throughput, single_best - 1e-9);
}

TEST_F(TunerTest, OneEvaluatedGridServesEveryReduction)
{
    // The grid does not depend on the objective or the ceiling: one
    // evaluation reduces to what a fresh search under each returns.
    TuneRequest req = request(TuneObjective::kThroughput);
    const auto grid = tune_grid(req);
    ASSERT_TRUE(grid.is_ok());
    const std::vector<SimPoint> points = evaluate(grid->candidates, 2);
    for (auto objective :
         {TuneObjective::kLatency, TuneObjective::kThroughput}) {
        req.objective = objective;
        const auto reduced = best_of(req, *grid, points);
        const auto searched = auto_tune(req);
        ASSERT_TRUE(reduced.is_ok());
        ASSERT_TRUE(searched.is_ok());
        EXPECT_EQ(reduced->best.describe(), searched->best.describe());
        EXPECT_EQ(reduced->best.metrics.tbt, searched->best.metrics.tbt);
        EXPECT_EQ(reduced->explored.size(), searched->explored.size());
        EXPECT_EQ(reduced->infeasible, searched->infeasible);
    }
}

TEST_F(TunerTest, DescribeMentionsScheme)
{
    const auto result = auto_tune(request(TuneObjective::kLatency));
    ASSERT_TRUE(result.is_ok());
    const std::string desc = result->best.describe();
    EXPECT_EQ(desc.find(desc), 0u);
    EXPECT_NE(desc.find(placement::placement_kind_name(
                  result->best.spec.placement)),
              std::string::npos);
    EXPECT_NE(desc.find("b="), std::string::npos);
}

TEST_F(TunerTest, SearchesTheRequestedHost)
{
    // Every candidate runs on the requested host; only an NDP-capable
    // one adds near-data candidates.  Offload candidates carry the
    // legacy_offload KV config and keep their " kv-offload" label.
    TuneRequest req = request(TuneObjective::kThroughput);
    req.model = model::opt_config(OptVariant::kOpt1_3B);
    req.batch_limit = 8;
    req.explore_kv_offload = true;
    const auto count_ndp = [](const TuneResult &result) {
        std::size_t ndp = 0;
        for (const auto &c : result.explored) {
            if (c.spec.compute_site != placement::ComputeSiteMode::kGpuOnly)
                ++ndp;
        }
        return ndp;
    };

    req.memory = "NDP-DIMM";
    const auto ndp = auto_tune(req);
    ASSERT_TRUE(ndp.is_ok()) << ndp.status().to_string();
    EXPECT_GT(count_ndp(*ndp), 0u);
    bool saw_offload = false;
    for (const auto &c : ndp->explored) {
        EXPECT_EQ(c.spec.memory.name(), "NDP-DIMM");
        const bool offload = c.spec.kv_cache.has_value();
        EXPECT_EQ(c.describe().find(" kv-offload") != std::string::npos,
                  offload);
        saw_offload |= offload;
    }
    EXPECT_TRUE(saw_offload);

    req.memory = mem::ConfigKind::kNvdram;
    const auto nvdram = auto_tune(req);
    ASSERT_TRUE(nvdram.is_ok()) << nvdram.status().to_string();
    EXPECT_EQ(count_ndp(*nvdram), 0u);

    req.memory = "abacus";
    EXPECT_EQ(auto_tune(req).status().code(),
              StatusCode::kInvalidArgument);
}

TEST(TunerObjective, Names)
{
    EXPECT_STREQ(tune_objective_name(TuneObjective::kLatency), "latency");
    EXPECT_STREQ(tune_objective_name(TuneObjective::kThroughput),
                 "throughput");
}

} // namespace
} // namespace helm::sweep
