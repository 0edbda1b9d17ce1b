#include "runtime/step_cache.h"

#include "telemetry/metrics.h"

namespace helm::runtime {

const char *
step_cache_invalidation_name(StepCacheInvalidation reason)
{
    switch (reason) {
      case StepCacheInvalidation::kPreemption:
        return "preemption";
      case StepCacheInvalidation::kKvDemotion:
        return "kv-demotion";
      case StepCacheInvalidation::kKvPromotion:
        return "kv-promotion";
      case StepCacheInvalidation::kBatchReformation:
        return "batch-reformation";
      case StepCacheInvalidation::kReasonCount:
        break;
    }
    return "unknown";
}

std::uint64_t
StepScheduleCache::total_invalidations() const
{
    std::uint64_t total = 0;
    for (const auto &counter : invalidations_)
        total += counter.load(std::memory_order_relaxed);
    return total;
}

void
StepScheduleCache::record(telemetry::MetricsRegistry &reg) const
{
    reg.counter("helm_stepcache_hits", {{"stage", "engine"}},
                "Steady-state timelines replayed from the step-schedule "
                "cache instead of re-simulated")
        .add(static_cast<double>(hits()));
    reg.counter("helm_stepcache_hits", {{"stage", "stream"}},
                "Gateway turn streams fast-forwarded from a cached "
                "timeline")
        .add(static_cast<double>(stream_hits()));
    reg.counter("helm_stepcache_misses", {{"stage", "engine"}},
                "Distinct steady-state timelines simulated and cached")
        .add(static_cast<double>(misses()));
    constexpr auto reason_count =
        static_cast<std::size_t>(StepCacheInvalidation::kReasonCount);
    for (std::size_t i = 0; i < reason_count; ++i) {
        const auto reason = static_cast<StepCacheInvalidation>(i);
        reg.counter("helm_stepcache_invalidations",
                    {{"reason", step_cache_invalidation_name(reason)}},
                    "Steady-state boundaries that forced the fast path "
                    "back onto a fresh digest")
            .add(static_cast<double>(invalidations(reason)));
    }
}

StepScheduleCache &
step_cache()
{
    static StepScheduleCache cache;
    return cache;
}

void
set_step_cache_enabled(bool on)
{
    step_cache().set_enabled(on);
}

bool
step_cache_enabled()
{
    return step_cache().enabled();
}

} // namespace helm::runtime
