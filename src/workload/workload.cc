#include "workload/workload.h"

#include <algorithm>
#include <cmath>

namespace helm::workload {

std::uint64_t
Batch::max_prompt_tokens() const
{
    std::uint64_t max_tokens = 0;
    for (const auto &r : requests)
        max_tokens = std::max(max_tokens, r.prompt_tokens);
    return max_tokens;
}

std::uint64_t
Batch::max_output_tokens() const
{
    std::uint64_t max_tokens = 0;
    for (const auto &r : requests)
        max_tokens = std::max(max_tokens, r.output_tokens);
    return max_tokens;
}

model::SequenceShape
Batch::shape() const
{
    model::SequenceShape shape;
    shape.prompt_tokens = max_prompt_tokens();
    shape.output_tokens = max_output_tokens();
    return shape;
}

std::uint64_t
sample_c4_prompt_tokens(Rng &rng, std::uint64_t median,
                        std::uint64_t floor)
{
    // Truncated log-normal: median = `median`, sigma chosen so ~95% of
    // C4-like documents fall within [0.25x, 4x] of the median.
    const double sigma = 0.7;
    const double sample = static_cast<double>(median) *
                          std::exp(sigma * rng.next_gaussian());
    std::uint64_t tokens =
        std::max<std::uint64_t>(floor,
                                static_cast<std::uint64_t>(sample));
    // Cap at the paper's truncation length.
    return std::min(tokens, median * 4);
}

} // namespace helm::workload
