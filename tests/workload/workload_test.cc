/**
 * @file
 * Unit tests for requests, the padded shape a batch of them runs at,
 * and the C4 length sampler.
 */
#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "model/footprint.h"
#include "runtime/scheduler.h"
#include "workload/arrival.h"
#include "workload/workload.h"

namespace helm::workload {
namespace {

/** @p count draws of the sampler at the paper's median and floor. */
std::vector<std::uint64_t>
sample_prompts(std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    std::vector<std::uint64_t> prompts;
    for (std::size_t i = 0; i < count; ++i)
        prompts.push_back(sample_c4_prompt_tokens(rng, 128, 16));
    return prompts;
}

/** One request per (prompt, output) pair, all at t = 0, formed into a
 *  single FCFS batch with room for every one of them. */
runtime::FormedBatch
form_all(const std::vector<std::pair<std::uint64_t, std::uint64_t>> &lengths)
{
    std::vector<TimedRequest> pending;
    std::deque<std::size_t> queue;
    for (const auto &[prompt, output] : lengths) {
        queue.push_back(pending.size());
        pending.push_back(TimedRequest{
            Request{pending.size(), prompt, output}, 0.0});
    }
    runtime::AdmissionGeometry admission;
    admission.ceiling = lengths.size();
    runtime::ServingReport report;
    auto formed = runtime::form_batch(queue, pending, admission, report);
    EXPECT_TRUE(queue.empty());
    EXPECT_TRUE(report.rejected_ids.empty());
    return formed;
}

TEST(Workload, PaperDefaults)
{
    // Sec. III-B: 128-token inputs, 21 output tokens.
    const ArrivalSpec arrivals;
    EXPECT_EQ(arrivals.prompt_tokens, 128u);
    EXPECT_EQ(arrivals.output_tokens, 21u);
    const model::SequenceShape shape;
    EXPECT_EQ(shape.prompt_tokens, 128u);
    EXPECT_EQ(shape.output_tokens, 21u);
}

TEST(Workload, ShapeReflectsPaddedLengths)
{
    const auto formed = form_all({{128, 21}, {128, 21}, {128, 21}, {128, 21}});
    EXPECT_EQ(formed.shape.count, 4u);
    EXPECT_EQ(formed.shape.shape.prompt_tokens, 128u);
    EXPECT_EQ(formed.shape.shape.output_tokens, 21u);
    EXPECT_EQ(formed.shape.shape.max_context(), 149u);
}

TEST(Workload, VariableLengthsDeterministicPerSeed)
{
    EXPECT_EQ(sample_prompts(0xC4C4C4C4ull, 24),
              sample_prompts(0xC4C4C4C4ull, 24));
}

TEST(Workload, VariableLengthsRespectBounds)
{
    const auto prompts = sample_prompts(0xC4C4C4C4ull, 256);
    bool saw_variation = false;
    for (std::uint64_t prompt : prompts) {
        EXPECT_GE(prompt, 16u);
        EXPECT_LE(prompt, 128u * 4);
        saw_variation |= prompt != prompts.front();
    }
    EXPECT_TRUE(saw_variation);
}

TEST(Workload, DifferentSeedsDiffer)
{
    EXPECT_NE(sample_prompts(0xC4C4C4C4ull, 32),
              sample_prompts(0xC4C4C4C5ull, 32));
}

TEST(Workload, PaddedMaxima)
{
    // FlexGen pads to the longest prompt and the longest output, even
    // when no single member has both.
    const auto formed = form_all({{100, 10}, {250, 21}, {30, 5}});
    EXPECT_EQ(formed.members, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(formed.shape.count, 3u);
    EXPECT_EQ(formed.shape.shape.prompt_tokens, 250u);
    EXPECT_EQ(formed.shape.shape.output_tokens, 21u);
    EXPECT_EQ(formed.shape.shape.max_context(), 271u);
}

} // namespace
} // namespace helm::workload
