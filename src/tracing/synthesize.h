/**
 * @file
 * The gateway's turn traces, derived from each turn's own timestamps.
 *
 * Spans are *derived* after the fact from the authoritative timing the
 * gateway already records for a turn (submission, dispatch, first
 * token, completion) — the same numbers every report and metric is
 * computed from, so trace and report cannot disagree, and determinism
 * across `--jobs` is inherited rather than re-proven.  A completed
 * turn's queue -> dispatch -> stream spans tile its client-edge wall;
 * a shed turn ends in its queue span.
 *
 * The backend's request and per-GPU scheduler trees are derived from a
 * `ServingReport` and its step records, so they live with the other
 * step-record consumers in `runtime/trace.h`
 * (`runtime::synthesize_serving_traces`): `tracing/` sits below
 * `runtime/` and includes none of its headers.
 */
#ifndef HELM_TRACING_SYNTHESIZE_H
#define HELM_TRACING_SYNTHESIZE_H

#include <cstdint>

#include "tracing/tracer.h"

namespace helm::tracing {

/** Everything one gateway turn trace is derived from. */
struct TurnTraceInput
{
    std::uint64_t turn_id = 0;
    std::uint64_t session = 0;
    std::uint32_t replica = 0;
    std::uint64_t prompt_tokens = 0;
    std::uint64_t output_tokens = 0;
    Seconds submitted = 0.0;
    Seconds dispatched = 0.0;
    Seconds first_token = 0.0;
    Seconds completed = 0.0;
    Seconds tbt = 0.0;
};

/** Spans a built turn trace holds (for fast-path accounting). */
inline constexpr std::size_t kTurnTraceSpans = 4;

/** turn root + queue/dispatch/stream children tiling it exactly. */
Trace build_turn_trace(const TurnTraceInput &input,
                       std::size_t max_spans);

/** A shed turn: root + queue span ending at the shed, flagged. */
Trace build_shed_turn_trace(std::uint64_t turn_id, std::uint64_t session,
                            Seconds submitted, Seconds shed_at,
                            const char *reason, std::size_t max_spans);

} // namespace helm::tracing

#endif // HELM_TRACING_SYNTHESIZE_H
