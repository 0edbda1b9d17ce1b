/**
 * @file
 * StepScheduleCache: the process memo of simulated runs.
 *
 * The paper's Figs. 4-8 show that out-of-core decode is a repeating
 * per-layer transfer/compute pattern — identical from one token step to
 * the next for a fixed placement and batch — and its sweeps (Fig. 11,
 * the HeLM tuner) revisit the same specs.  A ServingSpec fully
 * determines its run: the engine is deterministic and takes no ambient
 * state.  So `simulate_inference()` keys every run by
 * `spec_cache_key()` plus the keep_records bit and replays a repeated
 * spec — metrics and per-layer step records — instead of compiling the
 * schedule again and re-running its executor (the closed form for
 * single-flow runs, the DES for the rest).
 *
 * Entries never go stale.  Anything that changes a run — preemption,
 * KV demotion/promotion, batch re-formation, NDP-site changes — changes
 * its spec and therefore its key, so correctness comes from key misses,
 * never from dropping entries.
 *
 * The cache is process-global (sweep and tune points, replicas and
 * cluster GPUs share it) and thread-safe; `--no-step-cache` flips the
 * atomic enable and restores the uncached path exactly.
 */
#ifndef HELM_RUNTIME_STEP_CACHE_H
#define HELM_RUNTIME_STEP_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "exec/memo.h"
#include "runtime/engine.h"

namespace helm::telemetry {
class MetricsRegistry;
}

namespace helm::runtime {

/**
 * Canonical cache key: every ServingSpec field that affects the
 * simulation, serialized to a stable string (doubles at full
 * precision, strings length-prefixed).  keep_records is excluded;
 * simulate_inference() appends it.
 */
std::string spec_cache_key(const ServingSpec &spec);

/**
 * Digest-keyed memo of complete simulated runs.  Values are immutable
 * once inserted (shared_ptr<const CachedRun>); callers copy what they
 * mutate (record time-shifting happens on the caller's copy).
 */
class StepScheduleCache
{
  public:
    /** One memoized run: the engine outcome, errors included (an
     *  infeasible spec repeats exactly too). */
    struct CachedRun
    {
        Status status;    //!< non-OK when the simulation failed
        RunResult result; //!< valid only when status.is_ok()
    };
    using EntryPtr = std::shared_ptr<const CachedRun>;

    StepScheduleCache() = default;

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void
    set_enabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /**
     * The memoized run for @p digest, computing it with @p fn on first
     * use.  Compute-once under races: concurrent callers with the same
     * digest share one simulation.
     */
    EntryPtr
    get_or_run(const std::string &digest,
               const std::function<EntryPtr()> &fn)
    {
        return memo_.get_or_compute(digest, fn);
    }

    /** Engine-level replay hits / simulations actually run. */
    std::uint64_t hits() const { return memo_.hits(); }
    std::uint64_t misses() const { return memo_.misses(); }
    /** Distinct steady-state timelines cached. */
    std::size_t size() const { return memo_.size(); }

    /** Always 0: a streamed gateway turn is not a cache lookup.  Kept
     *  only because `perfbench/workloads.cc` still reads it; it goes
     *  when that harness next changes. */
    std::uint64_t stream_hits() const { return 0; }

    /** Emit helm_stepcache_{hits,misses} into @p reg. */
    void record(telemetry::MetricsRegistry &reg) const;

    /** Drop every cached run (counters keep their values), so the next
     *  lookups start cold.  Production entries never go stale. */
    void clear() { memo_.clear(); }

  private:
    exec::ShardedMemo<EntryPtr> memo_;
    std::atomic<bool> enabled_{true};
};

/** The process-global cache shared by every engine entry point. */
StepScheduleCache &step_cache();

/** Convenience for the CLI's --no-step-cache escape hatch. */
void set_step_cache_enabled(bool on);
bool step_cache_enabled();

} // namespace helm::runtime

#endif // HELM_RUNTIME_STEP_CACHE_H
