/**
 * @file
 * Unit tests for the paper's serving rules (Sec. III-B/C): the
 * engine's per-batch aggregation over repeats, and the per-batch
 * padding, spec knobs and failures a `Server` batch runs with.
 */
#include <gtest/gtest.h>

#include "common/summary.h"
#include "model/opt.h"
#include "runtime/scheduler.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

ServingSpec
base_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    return spec;
}

/** Serve @p requests, all arriving at t=0, as one formed batch. */
Result<ServingReport>
serve_one_batch(const ServingSpec &spec,
                const std::vector<workload::Request> &requests)
{
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = requests.size();
    auto server = Server::create(spec, config);
    if (!server.is_ok())
        return server.status();
    for (const workload::Request &request : requests)
        HELM_RETURN_IF_ERROR(server->submit(request, 0.0));
    return server->serve();
}

TEST(Serving, PaperWorkloadAggregates)
{
    // Sec. III-B: batch 4 of 128-token prompts, 21 output tokens, each
    // batch repeated 10 times.
    ServingSpec spec = base_spec();
    spec.batch = 4;
    spec.repeats = 10;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->metrics.per_batch_ttft.size(), 10u);
    EXPECT_EQ(result->metrics.total_tokens, 10u * 4u * 21u);
    EXPECT_GT(result->metrics.throughput, 0.0);
}

TEST(Serving, ColdDiscardMatchesPaperRule)
{
    // Sec. III-C: per-batch means with the cold first batch discarded.
    ServingSpec spec = base_spec();
    spec.repeats = 10;
    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok());
    const InferenceMetrics &m = result->metrics;
    EXPECT_EQ(m.ttft, mean_discarding_first(m.per_batch_ttft));
    EXPECT_EQ(m.tbt, mean_discarding_first(m.per_batch_tbt));
    EXPECT_NEAR(m.ttft, m.per_batch_ttft[1], 1e-9);
}

TEST(Serving, VariableLengthBatchesPadPerBatch)
{
    // FlexGen pads a batch to its longest prompt: a mixed batch costs
    // exactly what a batch of two long prompts costs.
    const auto mixed =
        serve_one_batch(base_spec(), {{0, 64, 8}, {1, 1024, 8}});
    const auto padded =
        serve_one_batch(base_spec(), {{0, 1024, 8}, {1, 1024, 8}});
    ASSERT_TRUE(mixed.is_ok()) << mixed.status().to_string();
    ASSERT_TRUE(padded.is_ok());
    EXPECT_EQ(mixed->batches_formed, 1u);
    ASSERT_EQ(mixed->requests.size(), 2u);
    EXPECT_EQ(mixed->requests[0].ttft, padded->requests[0].ttft);
    EXPECT_EQ(mixed->makespan, padded->makespan);
}

TEST(Serving, LongerPromptsCostMorePrefill)
{
    // Large batch x long prompt so prefill compute rises above the
    // weight-transfer floor (small prompts are transfer-bound and TTFT
    // is rightly insensitive to length there).
    std::vector<workload::Request> short_batch;
    std::vector<workload::Request> long_batch;
    for (std::uint64_t i = 0; i < 32; ++i) {
        short_batch.push_back({i, 64, 8});
        long_batch.push_back({i, 1024, 8});
    }
    const auto short_run = serve_one_batch(base_spec(), short_batch);
    const auto long_run = serve_one_batch(base_spec(), long_batch);
    ASSERT_TRUE(short_run.is_ok());
    ASSERT_TRUE(long_run.is_ok());
    EXPECT_GT(long_run->ttft_percentile(50.0),
              short_run->ttft_percentile(50.0));
}

TEST(Serving, BaseSpecKnobsApply)
{
    // A served batch runs under the Server's base spec: with int4
    // weights and three micro-batches, one request costs what the
    // engine charges for that spec, not for the plain one.
    ServingSpec spec = base_spec();
    spec.compress_weights = true;
    spec.micro_batches = 3;
    const auto served = serve_one_batch(spec, {{0, 128, 21}});
    spec.repeats = 1;
    const auto engine = simulate_inference(spec);
    ASSERT_TRUE(served.is_ok()) << served.status().to_string();
    ASSERT_TRUE(engine.is_ok());
    ASSERT_EQ(served->requests.size(), 1u);
    EXPECT_EQ(served->requests[0].ttft, engine->metrics.ttft);
    EXPECT_EQ(served->requests[0].tbt, engine->metrics.tbt);
    EXPECT_EQ(served->makespan, engine->metrics.total_time);

    spec.compress_weights = false;
    spec.micro_batches = 1;
    const auto plain = simulate_inference(spec);
    ASSERT_TRUE(plain.is_ok());
    EXPECT_NE(served->requests[0].ttft, plain->metrics.ttft);
}

TEST(Serving, PropagatesEngineFailures)
{
    // A formed batch too large for the GPU must surface the engine's
    // capacity error from serve().
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.compress_weights = true;
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = 500;
    auto server = Server::create(spec, config);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    for (std::uint64_t i = 0; i < 500; ++i) {
        ASSERT_TRUE(
            server->submit(workload::Request{i, 128, 21}, 0.0).is_ok());
    }
    EXPECT_EQ(server->serve().status().code(),
              StatusCode::kCapacityExceeded);
}

} // namespace
} // namespace helm::runtime
