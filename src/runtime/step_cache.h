/**
 * @file
 * StepScheduleCache: memoized steady-state decode timelines.
 *
 * The paper's Figs. 4-8 show that out-of-core decode is a repeating
 * per-layer transfer/compute pattern — identical from one token step to
 * the next for a fixed placement and batch.  The DES faithfully
 * re-derives that identical pattern for every decode iteration, so a
 * long gateway drive spends nearly all its wall-clock rebuilding and
 * re-firing schedules it has already computed.
 *
 * This cache recognizes the steady state at run granularity: the key is
 * a canonical digest of everything that shapes the per-layer event
 * timeline —
 *
 *   - placement digest      (memory kind / policy / zoo device /
 *                            compression / spill behaviour),
 *   - batch composition     (batch x micro-batches x sequence shape x
 *                            repeats),
 *   - KV-tier residency     (resolved KvCacheConfig: tiers, capacities,
 *                            block size, eviction policy),
 *   - compute-site mode     (GPU-only vs NDP auto/all),
 *   - device curves         (GPU spec, PCIe link, custom CXL bandwidth)
 *
 * — i.e. `spec_cache_key()` (runtime/sim_cache.h) extended with the
 * keep_records bit.  On a hit the whole simulated run (metrics AND the
 * per-layer step records) is replayed by time-shifting the cached
 * timeline onto the caller's clock instead of re-posting every
 * load_weight / compute_layer / KV event through the simulator.
 *
 * Exactness and invalidation: the engine is deterministic and takes no
 * ambient state, so a digest fully determines its timeline and entries
 * can never go stale.  The events the issue calls out — preemption, KV
 * demotion/promotion, batch re-formation, NDP-site changes — all feed
 * the digest (a preempted request resumes as a *different* batch
 * signature; a demoted block changes the KV residency the next spec
 * sees), so they invalidate by key-miss rather than by entry-drop.  The
 * `note_invalidation()` counters make those steady-state boundaries
 * observable (`helm_stepcache_invalidations{reason=...}`) so a run
 * whose fast path keeps breaking is diagnosable from its metrics.
 *
 * The cache is process-global (replicas, cluster GPUs, and sweep probes
 * share misses) and thread-safe; `--no-step-cache` flips the atomic
 * enable and restores the old path exactly.
 */
#ifndef HELM_RUNTIME_STEP_CACHE_H
#define HELM_RUNTIME_STEP_CACHE_H

#include <array>
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

/** Why a steady-state timeline stopped being replayable. */
enum class StepCacheInvalidation
{
    kPreemption = 0,      //!< scheduler preempted a running batch
    kKvDemotion,          //!< KV blocks demoted to a lower tier
    kKvPromotion,         //!< KV blocks promoted on resume
    kBatchReformation,    //!< continuous batching re-formed the batch
    kReasonCount,
};

/** Label value for a reason ("preemption", "kv-demotion", ...). */
const char *step_cache_invalidation_name(StepCacheInvalidation reason);

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

    /** A gateway stream fast-forwarded from a cached timeline (one per
     *  replayed turn window). */
    void
    note_stream_hit(std::uint64_t n = 1)
    {
        stream_hits_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t
    stream_hits() const
    {
        return stream_hits_.load(std::memory_order_relaxed);
    }

    /** Record a steady-state boundary (see file comment: these change
     *  the digest, so correctness never depends on this call). */
    void
    note_invalidation(StepCacheInvalidation reason)
    {
        invalidations_[static_cast<std::size_t>(reason)].fetch_add(
            1, std::memory_order_relaxed);
    }
    std::uint64_t
    invalidations(StepCacheInvalidation reason) const
    {
        return invalidations_[static_cast<std::size_t>(reason)].load(
            std::memory_order_relaxed);
    }
    std::uint64_t total_invalidations() const;

    /** Emit helm_stepcache_{hits,misses,invalidations} into @p reg. */
    void record(telemetry::MetricsRegistry &reg) const;

    /** Drop every cached timeline (counters keep their values).  Test
     *  hook; production entries never go stale. */
    void clear() { memo_.clear(); }

  private:
    exec::ShardedMemo<EntryPtr> memo_;
    std::atomic<bool> enabled_{true};
    std::atomic<std::uint64_t> stream_hits_{0};
    std::array<std::atomic<std::uint64_t>,
               static_cast<std::size_t>(
                   StepCacheInvalidation::kReasonCount)>
        invalidations_{};
};

/** The process-global cache shared by every engine entry point. */
StepScheduleCache &step_cache();

/** Convenience for the CLI's --no-step-cache escape hatch. */
void set_step_cache_enabled(bool on);
bool step_cache_enabled();

} // namespace helm::runtime

#endif // HELM_RUNTIME_STEP_CACHE_H
