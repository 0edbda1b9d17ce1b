/**
 * @file
 * Serving requests and the C4 length sampler.
 *
 * The paper drives FlexGen with C4/realnewslike prompts truncated to 128
 * input tokens, generating 21 output tokens (Sec. III-B).  Since only
 * sequence *lengths* affect timing, a request is just its token counts,
 * and variable-length prompts are drawn from a C4-like length
 * distribution (truncated log-normal).  What identifies a batch of them
 * is its member count and padded shape (runtime::BatchShape).
 */
#ifndef HELM_WORKLOAD_WORKLOAD_H
#define HELM_WORKLOAD_WORKLOAD_H

#include <cstdint>

#include "common/rng.h"

namespace helm::workload {

/** One serving request: a prompt plus a generation budget. */
struct Request
{
    std::uint64_t id = 0;
    std::uint64_t prompt_tokens = 0;
    std::uint64_t output_tokens = 0;
    /** Owning tenant; the continuous scheduler keeps per-tenant queues
     *  and fairness accounting keyed by this tag.  0 = default tenant. */
    std::uint64_t tenant = 0;
};

/**
 * Sample a C4-like prompt length: truncated log-normal with median
 * @p median, floored at @p floor and capped at 4x the median (the
 * paper's truncation).
 */
std::uint64_t sample_c4_prompt_tokens(Rng &rng, std::uint64_t median,
                                      std::uint64_t floor);

} // namespace helm::workload

#endif // HELM_WORKLOAD_WORKLOAD_H
