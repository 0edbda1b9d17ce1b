#include "telemetry/monitor.h"

#include <cstdio>

#include "telemetry/metrics.h"

namespace helm::telemetry {
namespace {

BurnRatePolicy
availability_policy(const MonitorConfig &config)
{
    BurnRatePolicy policy;
    policy.slo = "availability";
    policy.objective = config.availability_objective;
    policy.fast_window = config.fast_window;
    policy.slow_window = config.slow_window;
    policy.threshold = config.threshold;
    policy.clear_fraction = config.clear_fraction;
    policy.buckets = config.buckets;
    return policy;
}

BurnRatePolicy
latency_policy(const MonitorConfig &config)
{
    BurnRatePolicy policy = availability_policy(config);
    policy.slo = "latency";
    policy.objective = config.latency_objective;
    return policy;
}

std::string
short_double(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

void
record_alert(MetricsRegistry &registry,
             const BurnRateEvaluator &evaluator)
{
    const BurnRatePolicy &policy = evaluator.policy();
    const Labels slo = {{"slo", policy.slo}};
    registry
        .gauge("helm_alert_info",
               {{"slo", policy.slo},
                {"objective", short_double(policy.objective)},
                {"fast_window_s", short_double(policy.fast_window)},
                {"slow_window_s", short_double(policy.slow_window)},
                {"threshold", short_double(policy.threshold)}},
               "Burn-rate alert rule metadata (value is constant 1)")
        .set(1.0);
    registry
        .gauge("helm_alert_active", slo,
               "1 while the burn-rate alert is firing at run end")
        .set(evaluator.firing() ? 1.0 : 0.0);
    registry
        .counter("helm_alert_events_total",
                 {{"slo", policy.slo}, {"transition", "fire"}},
                 "Burn-rate alert transitions")
        .add(static_cast<double>(evaluator.fired_count()));
    registry
        .counter("helm_alert_events_total",
                 {{"slo", policy.slo}, {"transition", "clear"}},
                 "Burn-rate alert transitions")
        .add(static_cast<double>(evaluator.cleared_count()));
    registry
        .gauge("helm_alert_peak_burn", slo,
               "Largest simultaneous fast/slow burn rate observed")
        .set(evaluator.peak_burn());
    registry
        .gauge("helm_alert_fast_burn", slo,
               "Fast-window burn rate at run end")
        .set(evaluator.fast_burn());
    registry
        .gauge("helm_alert_slow_burn", slo,
               "Slow-window burn rate at run end")
        .set(evaluator.slow_burn());
}

} // namespace

ServingMonitor::ServingMonitor(MonitorConfig config)
    : config_(config),
      goodput_(config.fast_window / static_cast<double>(config.buckets),
               config.buckets),
      shed_(config.fast_window / static_cast<double>(config.buckets),
            config.buckets),
      traffic_(config.fast_window / static_cast<double>(config.buckets),
               config.buckets),
      queue_(config.fast_window / static_cast<double>(config.buckets),
             config.buckets),
      ports_(config.fast_window / static_cast<double>(config.buckets),
             config.buckets),
      availability_(availability_policy(config))
{
    if (config.ttft_target > 0.0)
        latency_ = std::make_unique<BurnRateEvaluator>(
            latency_policy(config));
}

void
ServingMonitor::on_completed(Seconds t, std::uint64_t tokens,
                             Seconds ttft)
{
    goodput_.record(t, static_cast<double>(tokens));
    traffic_.record(t, 1.0);
    availability_.observe(t, 1, 0);
    if (latency_) {
        const bool slow = ttft > config_.ttft_target;
        latency_->observe(t, slow ? 0 : 1, slow ? 1 : 0);
    }
}

void
ServingMonitor::on_shed(Seconds t)
{
    shed_.record(t, 1.0);
    availability_.observe(t, 0, 1);
}

void
ServingMonitor::on_queue_depth(Seconds t, double depth)
{
    queue_.record(t, depth);
}

ServingMonitor::KvTierHandle
ServingMonitor::kv_tier_handle(const std::string &tier)
{
    for (KvTierHandle handle = 0; handle < kv_tiers_.size(); ++handle)
        if (kv_tiers_[handle].first == tier)
            return handle;
    kv_tiers_.emplace_back(
        tier, SlidingWindow(config_.fast_window /
                                static_cast<double>(config_.buckets),
                            config_.buckets));
    return kv_tiers_.size() - 1;
}

void
ServingMonitor::on_kv_occupancy(Seconds t, KvTierHandle tier,
                                double occupancy)
{
    kv_tiers_[tier].second.record(t, occupancy);
}

void
ServingMonitor::on_port_utilization(Seconds t, double fraction)
{
    ports_.record(t, fraction);
}

void
ServingMonitor::finish(Seconds t)
{
    goodput_.advance(t);
    shed_.advance(t);
    traffic_.advance(t);
    queue_.advance(t);
    ports_.advance(t);
    for (auto &[tier, window] : kv_tiers_)
        window.advance(t);
    availability_.advance(t);
    if (latency_)
        latency_->advance(t);
}

void
ServingMonitor::record(MetricsRegistry &registry) const
{
    const Labels fast = {{"window", "fast"}};
    registry
        .gauge("helm_window_span_seconds", fast,
               "Sliding-window span used for windowed gauges")
        .set(goodput_.span());
    registry
        .gauge("helm_window_goodput_tokens_per_s", fast,
               "Delivered tokens/s over the trailing window")
        .set(goodput_.rate());
    registry
        .gauge("helm_window_completed_per_s", fast,
               "Completed requests/s over the trailing window")
        .set(traffic_.rate());
    registry
        .gauge("helm_window_shed_per_s", fast,
               "Shed requests/s over the trailing window")
        .set(shed_.rate());
    const double traffic = traffic_.sum() + shed_.sum();
    registry
        .gauge("helm_window_shed_fraction", fast,
               "Shed / (shed + completed) over the trailing window")
        .set(traffic > 0.0 ? shed_.sum() / traffic : 0.0);
    registry
        .gauge("helm_window_queue_depth_mean", fast,
               "Mean sampled queue depth over the trailing window")
        .set(queue_.mean());
    if (ports_.total_samples() > 0)
        registry
            .gauge("helm_window_port_utilization", fast,
                   "Mean sampled port utilization over the trailing "
                   "window")
            .set(ports_.mean());
    for (const auto &[tier, window] : kv_tiers_)
        registry
            .gauge("helm_window_kv_occupancy",
                   {{"window", "fast"}, {"tier", tier}},
                   "Mean sampled KV occupancy (MiB) over the "
                   "trailing window")
            .set(window.mean());

    record_alert(registry, availability_);
    if (latency_)
        record_alert(registry, *latency_);
}

} // namespace helm::telemetry
