/**
 * @file
 * Observability data from a run's step records: the one place that
 * turns `LayerStepRecord`s and a `ServingReport` into timelines.
 *
 * Three consumers read the same records through the same sample rules
 * (a load window's host-port utilization, a step's KV occupancy in
 * MiB), so the trace, the span trees and the monitor cannot disagree:
 *   - `chrome_trace_json` renders a chrome://tracing / Perfetto
 *     document with one track for GPU compute and one for the h2d
 *     transfer fabric, so the compute/communication overlap the paper
 *     plots as bar charts can be inspected step by step;
 *   - `synthesize_serving_traces` derives the request and per-GPU
 *     scheduler span trees for the flight recorder;
 *   - `feed_monitor_from_report` replays a finished run into a
 *     `telemetry::ServingMonitor`.
 *
 * Layering: `tracing/` and `telemetry/` sit below `runtime/` and
 * include none of its headers; the gateway's turn traces, which need
 * no step records, are built in `tracing/synthesize.h`.
 *
 * The Chrome trace's deterministic pid/tid/flow-id layout (pinned by
 * trace_test):
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

namespace helm::telemetry {
class ServingMonitor;
}

namespace helm::tracing {
class FlightRecorder;
class Tracer;
} // namespace helm::tracing

namespace helm::runtime {

struct ServingReport;

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

/**
 * Offer one trace per completed request (queue/prefill/decode with
 * KV-swap children, outlier-flagged from the metrics) plus — when step
 * records were collected — one pinned "scheduler" trace per GPU whose
 * batch spans parent h2d resource spans.  Rejected requests are
 * counted as shed traces but carry no timing, so they are observed,
 * not built.
 */
void synthesize_serving_traces(tracing::Tracer &tracer,
                               const ServingReport &report,
                               const std::vector<LayerStepRecord> &records);

/**
 * Retrospectively drive a ServingMonitor from a finished backend run:
 * completions in completion-time order (the DES never produced them
 * otherwise), a port-utilization sample per load window (scaled by
 * @p port_rate_bytes_per_s; 0 feeds none), and KV occupancy in MiB at
 * every sampled step, then finish the windows at the makespan.  The
 * report carries no rejection timestamps, so availability sheds are
 * gateway-only.
 */
void feed_monitor_from_report(telemetry::ServingMonitor &monitor,
                              const ServingReport &report,
                              const std::vector<LayerStepRecord> &records,
                              double port_rate_bytes_per_s);

} // namespace helm::runtime

#endif // HELM_RUNTIME_TRACE_H
