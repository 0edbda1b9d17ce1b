/**
 * @file
 * Discrete-event simulation core: virtual clock + event queue.
 *
 * All timing in helm-sim is produced by running model-derived durations
 * through this engine, so that concurrent activities (GPU compute, PCIe
 * transfers, host-memory reads) contend realistically instead of being
 * summed analytically.  Execution is strictly deterministic: events at
 * equal timestamps fire in scheduling order.
 *
 * Implementation: the kernel is the hot path of the serving gateway's
 * closed-loop driver (millions of client and window events per run),
 * so the pending set is a two-tier queue in the calendar/ladder-queue
 * family rather than one heap:
 *
 *  - event bodies (callback + generation counter) live in a slab — a
 *    `std::vector` with an intrusive free list — so steady-state
 *    scheduling performs no per-event map-node allocation and reuses
 *    hot cache lines.  An `EventId` packs (slot + 1, generation), so
 *    a stale handle — including the id of an already-fired event
 *    whose slot was reused — can never cancel the wrong event;
 *  - the *near* tier is a small 4-ary implicit heap of 24-byte
 *    plain-data entries (when, seq, slot, generation) holding only
 *    events at or before the current `horizon_`; it stays cache
 *    resident, so the per-pop sift touches L1/L2 instead of a
 *    million-entry heap;
 *  - the *far* tier is an unsorted append-only vector for everything
 *    past the horizon — scheduling there is a push_back.  When the
 *    near heap drains, a refill pass scans the far tier once, drops
 *    cancelled entries, advances the horizon adaptively so that a
 *    bounded batch moves near, and Floyd-heapifies that batch in
 *    O(batch);
 *  - cancellation is O(1): bump the record's generation and release
 *    the slot; the stale queue entry is skipped when it surfaces
 *    (near tier) or dropped wholesale during the next refill scan
 *    (far tier).
 *
 * Events fire in the unique total order (when, seq): the monotone
 * `seq` tiebreak makes same-timestamp execution order exactly
 * scheduling order, and the tiering is invisible except in speed
 * (tests/sim/event_queue_property_test.cc replays random programs
 * through a plain (when, seq) reference queue).  The tiers stay
 * because they are measurably faster than one heap: on a session-timer
 * program (each fire reschedules itself and re-arms a usually
 * cancelled deadline, the gateway's pattern), the tiers fired 1.6-1.8x
 * the events/s of one 4-ary heap over the same slab at 512 outstanding
 * sessions and 2.2-2.5x at 64Ki (min of 5, two runs, Release -O3,
 * shared 4-vCPU container): cancelled deadlines stay in a single heap
 * until they surface, while a refill drops them from the far tier in
 * bulk.
 *
 * Accounting guarantee: `pending_events()` counts exactly the events
 * that have been scheduled but neither fired nor cancelled.  Cancelled
 * -but-unpopped entries are NEVER counted — the count comes from a
 * live-event counter maintained by schedule/cancel/step, not from the
 * internal tier sizes (which may transiently exceed it by the number
 * of stale entries awaiting their skip or refill sweep).
 */
#ifndef HELM_SIM_SIMULATOR_H
#define HELM_SIM_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace helm::sim {

/** Opaque handle to a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel returned for invalid events. */
inline constexpr EventId kInvalidEvent = 0;

/**
 * The simulation kernel.  Owns the virtual clock and the pending-event
 * queue.  Not thread-safe by design: determinism is a feature.
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current virtual time in seconds. */
    Seconds now() const { return now_; }

    /**
     * Schedule @p fn to run @p delay seconds from now.
     * @return handle usable with cancel(); never kInvalidEvent.
     */
    EventId schedule(Seconds delay, std::function<void()> fn);

    /** Schedule at an absolute virtual time >= now(). */
    EventId schedule_at(Seconds when, std::function<void()> fn);

    /**
     * Cancel a pending event.
     * @return true if the event was pending and is now cancelled;
     *         false for an already-fired, already-cancelled, or
     *         never-issued handle (generation mismatch).
     */
    bool cancel(EventId id);

    /** Execute the single earliest pending event. @return false if empty. */
    bool step();

    /** Run until the event queue drains. */
    void run();

    /** Number of events executed so far (for tests / micro-benches). */
    std::uint64_t events_executed() const { return executed_; }

    /**
     * Pending (not yet fired or cancelled) event count.  Exact:
     * cancelled-but-unpopped entries are never counted (see the file
     * header's accounting guarantee).
     */
    std::size_t pending_events() const { return live_; }

  private:
    /** Near-heap arity: 4 keeps sift-downs shallow and each child
     *  scan inside one or two cache lines of 24-byte entries. */
    static constexpr std::size_t kArity = 4;

    /** Refill sizing: aim to move ~max(kNearTarget, far/8) entries
     *  per horizon advance — small enough to keep the near heap cache
     *  resident in steady state, a constant fraction when the far
     *  tier is huge so refill scans stay O(total) overall. */
    static constexpr std::size_t kNearTarget = 512;

    /** Plain-data queue entry; the global order is (when, seq). */
    struct HeapEntry
    {
        Seconds when;
        std::uint64_t seq;        //!< FIFO tiebreak for equal timestamps
        std::uint32_t slot;       //!< index into records_
        std::uint32_t generation; //!< must match the record to be live
    };

    /** Slab-resident event body; generation guards slot reuse. */
    struct EventRecord
    {
        std::function<void()> fn;
        std::uint32_t generation = 1;
        std::uint32_t next_free = kNoFreeSlot;
    };

    static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

    static bool
    precedes(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t slot);
    void near_push(const HeapEntry &entry);
    HeapEntry near_pop();
    void near_sift_down(std::size_t hole, const HeapEntry &value);
    /** Advance horizon_ and move the next batch of far events near.
     *  Pre: near_ empty.  Post: near_ non-empty or far_ empty. */
    void refill_near();
    /** Point the near heap's head at the earliest live event,
     *  refilling and discarding stale entries as needed.
     *  @return false when no live event is pending. */
    bool settle_head();

    /** True when a queue entry still names a live (uncancelled,
     *  unfired) record: the generation bumps on every fire/cancel, so
     *  one comparison settles it even across slot reuse. */
    bool
    entry_live(const HeapEntry &entry) const
    {
        return records_[entry.slot].generation == entry.generation;
    }

    Seconds now_ = 0.0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
    std::size_t live_ = 0; //!< scheduled, not yet fired or cancelled
    /** Events at or before this time go to (and live in) near_. */
    Seconds horizon_ = -std::numeric_limits<Seconds>::infinity();
    std::vector<HeapEntry> near_; //!< 4-ary min-heap by (when, seq)
    std::vector<HeapEntry> far_;  //!< unsorted, strictly past horizon_
    std::vector<EventRecord> records_;
    std::uint32_t free_head_ = kNoFreeSlot;
};

} // namespace helm::sim

#endif // HELM_SIM_SIMULATOR_H
