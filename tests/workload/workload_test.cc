/**
 * @file
 * Unit tests for requests, batches and the C4 length sampler.
 */
#include <gtest/gtest.h>

#include <vector>

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
    Batch batch;
    for (std::uint64_t i = 0; i < 4; ++i)
        batch.requests.push_back({i, 128, 21});
    const auto shape = batch.shape();
    EXPECT_EQ(shape.prompt_tokens, 128u);
    EXPECT_EQ(shape.output_tokens, 21u);
    EXPECT_EQ(shape.max_context(), 149u);
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
    Batch batch;
    batch.requests = {{0, 100, 10}, {1, 250, 21}, {2, 30, 5}};
    EXPECT_EQ(batch.max_prompt_tokens(), 250u);
    EXPECT_EQ(batch.max_output_tokens(), 21u);
    EXPECT_EQ(batch.shape().max_context(), 271u);
}

} // namespace
} // namespace helm::workload
