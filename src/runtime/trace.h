/**
 * @file
 * Chrome-trace export of a serving run's timeline.
 *
 * Emits the per-step records as a chrome://tracing / Perfetto JSON
 * document with one track for GPU compute and one for the h2d transfer
 * fabric, so the compute/communication overlap the paper plots as bar
 * charts can be inspected interactively, step by step.
 *
 * Deterministic pid/tid/flow-id layout (pinned by trace_test):
 *
 *   pid <g>   — one process row per GPU appearing in the records
 *     tid 0   — "GPU compute"
 *     tid 1   — "h2d transfers"
 *     tid 2   — "KV swap (preemption)"; tid reserved even when the run
 *               had no preemptions, so tier tracks never shift
 *     tid 3+i — "KV <tier>", i = the tier's first-seen order over the
 *               records (engine records tiers in config order)
 *   pid 1000  — "requests": retained flight-recorder span trees, one
 *     tid per trace in the recorder's sorted (kind, trace id) order
 *   Counter rows ("ph":"C") attach to pid 0.
 *
 * Flow-event ids are the *derived* span id of the flow's target span,
 * rendered "0x%llx" — a pure function of (trace id, phase, seq) — so
 * identical runs produce byte-identical documents regardless of
 * `--jobs`, host, or allocation order.
 */
#ifndef HELM_RUNTIME_TRACE_H
#define HELM_RUNTIME_TRACE_H

#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/metrics.h"

namespace helm::tracing {
class FlightRecorder;
}

namespace helm::runtime {

/**
 * Counter ("ph":"C") rows to add alongside the duration events, fed
 * from the same numbers the telemetry registry records so trace and
 * report cannot disagree.
 */
struct TraceCounterOptions
{
    /**
     * Shared host-port rate for the "host-port utilization" counter:
     * each step's load window contributes
     * (weight + KV bytes) / (window x rate).  0 disables the counter.
     */
    double host_port_rate_bytes_per_s = 0.0;

    /**
     * Preemption swap intervals (ServingReport::kv_swap_events): each
     * becomes a duration event on a dedicated "KV swap (preemption)"
     * track.  Empty (the fcfs case) emits neither events nor the track
     * metadata, keeping fcfs traces byte-identical.
     */
    std::vector<KvSwapEvent> kv_swaps;

    /**
     * Retained flight-recorder traces to merge as per-request span
     * rows (pid 1000) with flow arrows joining consecutive phases.
     * Null emits nothing, keeping span-free traces unchanged.
     */
    const tracing::FlightRecorder *flight_recorder = nullptr;
};

/**
 * Render records as a Chrome trace JSON string (the "traceEvents"
 * array format), plus counter rows: "host-port utilization" per load
 * window (when the rate is set) and "KV tier occupancy" (MiB per tier)
 * at each step that sampled occupancy.  Timestamps are microseconds of
 * virtual time.
 */
std::string chrome_trace_json(const std::vector<LayerStepRecord> &records,
                              const TraceCounterOptions &counters = {});

/** Write chrome_trace_json() to @p path. */
Status write_chrome_trace(const std::vector<LayerStepRecord> &records,
                          const std::string &path,
                          const TraceCounterOptions &counters = {});

} // namespace helm::runtime

#endif // HELM_RUNTIME_TRACE_H
