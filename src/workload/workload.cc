#include "workload/workload.h"

#include <algorithm>
#include <cmath>

namespace helm::workload {

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
