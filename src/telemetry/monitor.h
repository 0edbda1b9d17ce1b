/**
 * @file
 * ServingMonitor: the sliding-window + burn-rate layer the serving
 * stack feeds.
 *
 * One monitor per run.  The gateway / backend driver reports
 * completions, sheds, queue depths, per-tier KV occupancy, and port
 * utilization as they happen (on the sim clock); the monitor maintains
 * ring-buffer windows over each signal and evaluates SLO burn-rate
 * alerts (fast/slow window pairs) as the signals arrive.  At run end,
 * `record()` emits the helm_window_* and helm_alert_* metric families
 * and the report printer surfaces any alerts.  Everything is sim-time
 * driven, so output is byte-identical across `--jobs` and hosts.
 */
#ifndef HELM_TELEMETRY_MONITOR_H
#define HELM_TELEMETRY_MONITOR_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/burnrate.h"
#include "telemetry/timeseries.h"

namespace helm::telemetry {

class MetricsRegistry;

struct MonitorConfig
{
    /** Fast/slow alert windows (seconds of sim time). */
    Seconds fast_window = 60.0;
    Seconds slow_window = 600.0;
    std::size_t buckets = 60; //!< ring resolution per window

    /** Availability SLO: shed turns spend the error budget. */
    double availability_objective = 0.999;
    /** Latency SLO: TTFT above this target is "bad" (0 disables). */
    Seconds ttft_target = 0.0;
    double latency_objective = 0.99;

    double threshold = 1.0;      //!< burn-rate fire threshold
    double clear_fraction = 0.5; //!< hysteresis: clear below t * this
};

class ServingMonitor
{
  public:
    explicit ServingMonitor(MonitorConfig config = {});

    /** A request/turn finished streaming @p tokens; TTFT for the
     *  latency SLO. */
    void on_completed(Seconds t, std::uint64_t tokens, Seconds ttft);
    /** A request/turn was shed (admission or backend). */
    void on_shed(Seconds t);
    /** Sampled queue depth (accept queue or scheduler queue). */
    void on_queue_depth(Seconds t, double depth);
    /** Pre-resolved tier identity for the per-sample occupancy path.
     *  Resolving by name per sample costs a string lookup for every
     *  step record; hot feeders resolve the handle once per tier and
     *  pass the integer thereafter.  Handles are dense indices, stable
     *  for the monitor's lifetime, ordered by first sighting. */
    using KvTierHandle = std::size_t;
    /** Find-or-create the handle for @p tier. */
    KvTierHandle kv_tier_handle(const std::string &tier);
    /** Sampled KV occupancy for one memory tier (caller's units —
     *  the serving feed passes MiB). */
    void on_kv_occupancy(Seconds t, KvTierHandle tier,
                         double occupancy);
    /** Sampled port utilization fraction. */
    void on_port_utilization(Seconds t, double fraction);
    /** Advance all windows/alerts to end-of-run time @p t. */
    void finish(Seconds t);

    /** Emit helm_window_* and helm_alert_* into @p registry. */
    void record(MetricsRegistry &registry) const;

  private:
    MonitorConfig config_;
    SlidingWindow goodput_; //!< tokens delivered
    SlidingWindow shed_;    //!< shed count
    SlidingWindow traffic_; //!< completed count
    SlidingWindow queue_;   //!< queue-depth samples
    SlidingWindow ports_;   //!< port-utilization samples
    /** Tier windows in handle order (first sighting).  Lookup by name
     *  is a short linear scan (runs carry at most a few tiers); the
     *  metrics registry sorts label sets at export, so emission order
     *  here never reaches the artifacts. */
    std::vector<std::pair<std::string, SlidingWindow>> kv_tiers_;
    BurnRateEvaluator availability_;
    std::unique_ptr<BurnRateEvaluator> latency_;
};

} // namespace helm::telemetry

#endif // HELM_TELEMETRY_MONITOR_H
