/**
 * @file
 * Telemetry feeders for the runtime layer: turn a run's results into
 * registry metrics and per-step records into the time-attribution
 * decomposition (paper Figs. 5 and 8).
 *
 * Everything here writes through `telemetry::MetricsRegistry`; the
 * stdout tables, the Prometheus dump, and the JSON snapshot all read
 * the same registry afterwards, so they cannot disagree.
 */
#ifndef HELM_RUNTIME_INSTRUMENT_H
#define HELM_RUNTIME_INSTRUMENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "runtime/metrics.h"
#include "runtime/scheduler.h"
#include "telemetry/attribution.h"
#include "telemetry/metrics.h"

namespace helm::runtime {

/**
 * Decompose per-step records into per-layer-type compute / exposed
 * transfer / KV-stall / writeback seconds plus idle.
 *
 * The engine's steps tile each GPU's timeline (step k+1 starts at step
 * k's sync), so splitting every step span — and the gaps between spans
 * — accounts for each simulated second exactly once:
 *
 *  - a gap before a step is exposed transfer where it overlaps the
 *    step's own load window, idle otherwise (serving gaps, pipeline
 *    bubbles);
 *  - within a step, KV stall comes first (un-prefetched reads gate
 *    compute), then compute (kernel time plus @p layer_overhead, which
 *    the engine occupies but records exclude), and whatever the sync
 *    waited on past that is exposed transfer (the next step's load
 *    still in flight) or KV writeback.
 *
 * @param layer_overhead The GpuSpec's per-layer launch cost; records
 *        carry raw kernel time, the engine occupies kernel + overhead.
 * @param wall_per_gpu Close each GPU's timeline at this wall time
 *        (serving makespan); 0 = close at the last step's retirement.
 *        The result's wall() is wall-per-GPU summed over GPUs, and
 *        attributed_total() == wall() by construction.
 */
telemetry::TimeAttribution
attribute_records(const std::vector<LayerStepRecord> &records,
                  Seconds layer_overhead, Seconds wall_per_gpu = 0.0);

/** `helm_run_info{command,model,memory,placement} = 1`. */
void record_run_info(telemetry::MetricsRegistry &registry,
                     const ServingSpec &spec, const std::string &command);

/** Per-tier KV metrics (`helm_kv_*{tier}`) plus demotion/promotion and
 *  hit/miss lookup counters. */
void record_kv_stats(telemetry::MetricsRegistry &registry,
                     const kvcache::KvCacheStats &stats,
                     const kvcache::KvCacheConfig &config);

/**
 * Record one `simulate_inference` run: TTFT/TBT/throughput, placement
 * split, GPU memory, per-device engine transfer bytes, KV stats, and
 * the time attribution of @p result's records.
 */
void record_run(telemetry::MetricsRegistry &registry,
                const ServingSpec &spec, const RunResult &result,
                const std::string &command);

/**
 * Record one serving run: request outcomes, batch shape, latency
 * histograms + exact p50/p90/p95/p99 quantile gauges for queue wait /
 * TTFT / TBT / e2e, throughput, goodput, and SLO attainment.
 */
void record_serving(telemetry::MetricsRegistry &registry,
                    const ServingSpec &base, std::uint64_t max_batch,
                    std::uint64_t kv_slots, const ServingReport &report,
                    const std::string &command);

} // namespace helm::runtime

#endif // HELM_RUNTIME_INSTRUMENT_H
