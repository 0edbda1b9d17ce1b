/**
 * @file
 * Unit tests for Chrome-trace export and the QoS auto-tuner.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "model/opt.h"
#include "runtime/trace.h"
#include "runtime/tuner.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

RunResult
small_run()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.batch = 2;
    spec.repeats = 1;
    spec.shape.output_tokens = 3;
    auto result = simulate_inference(spec);
    EXPECT_TRUE(result.is_ok());
    return std::move(result).value();
}

TEST(Trace, JsonShapeAndContent)
{
    const auto result = small_run();
    const std::string json = chrome_trace_json(result.records);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("GPU compute"), std::string::npos);
    EXPECT_NE(json.find("h2d transfers"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("mha"), std::string::npos);
    EXPECT_NE(json.find("ffn"), std::string::npos);
    // One compute event per record at minimum.
    std::size_t events = 0, pos = 0;
    while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
        ++events;
        pos += 8;
    }
    EXPECT_GE(events, result.records.size());
}

TEST(Trace, ClusterRecordsGetOneProcessRowPerGpu)
{
    const auto result = small_run();
    // Duplicate the single-GPU records onto a second GPU: the trace
    // must grow a second process row ("GPU 1") with its own compute
    // and PCIe tracks, while GPU 0's rows keep pid 0.
    auto records = result.records;
    const std::size_t single = records.size();
    records.insert(records.end(), result.records.begin(),
                   result.records.end());
    for (std::size_t i = single; i < records.size(); ++i)
        records[i].gpu_index = 1;

    const std::string json = chrome_trace_json(records);
    EXPECT_NE(json.find("\"name\":\"GPU 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"GPU 1\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1,\"tid\":1"), std::string::npos);
    std::size_t pid1_events = 0, pos = 0;
    while ((pos = json.find("\"pid\":1", pos)) != std::string::npos) {
        ++pid1_events;
        pos += 7;
    }
    // At least one compute event per duplicated record, plus metadata.
    EXPECT_GE(pid1_events, single);
}

TEST(Trace, WritesFile)
{
    const auto result = small_run();
    const std::string path = "/tmp/helm_trace_test.json";
    ASSERT_TRUE(write_chrome_trace(result.records, path).is_ok());
    std::ifstream file(path);
    ASSERT_TRUE(file.is_open());
    std::string first_line;
    std::getline(file, first_line);
    EXPECT_NE(first_line.find("traceEvents"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Trace, EmptyRecordsRejected)
{
    EXPECT_EQ(write_chrome_trace({}, "/tmp/never.json").code(),
              StatusCode::kFailedPrecondition);
}

TEST(Trace, BadPathRejected)
{
    const auto result = small_run();
    EXPECT_FALSE(
        write_chrome_trace(result.records, "/nonexistent-dir/x.json")
            .is_ok());
}

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
        req.batch_limit = 64;
        req.explore_micro_batches = false; // keep the test fast
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
    TuneRequest narrow = request(TuneObjective::kThroughput);
    TuneRequest wide = narrow;
    wide.explore_micro_batches = true;
    const auto a = auto_tune(narrow);
    const auto b = auto_tune(wide);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_GE(b->best.metrics.throughput,
              a->best.metrics.throughput - 1e-9);
    EXPECT_GT(b->explored.size(), a->explored.size());
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
} // namespace helm::runtime
