/**
 * @file
 * Max-min fair-share bandwidth channel.
 *
 * Models a shared link (PCIe, a memory device's read port, a disk) as a
 * processor-sharing server: all active flows progress simultaneously, each
 * receiving a max-min fair share of the channel rate, optionally capped by
 * a per-flow rate (e.g. a flow sourced from Optane cannot exceed Optane's
 * read bandwidth even if PCIe has headroom).  Rates are recomputed by
 * water-filling: the flows are kept in fill order, so a fill is one
 * pass that grants the rates, notes throttling and finds the next
 * completion.  A departure fills at once.  An arrival only inserts the
 * flow, counts its throttle event and defers the fill to the kernel,
 * which settles the channel once per instant — before the next event
 * is scheduled or popped — however many flows started in between (see
 * simulator.h's "Deferred settling" for why event order is unchanged).
 *
 * The arithmetic is a value type of its own, FlowTable: the flows in
 * fill order and the four steps taken on them (insert, advance, reap,
 * fill), with no clock and no events.  BandwidthChannel drives one on
 * the kernel; runtime::Executor's closed form drives one for the shared
 * read port of a lockstep run in the order the channel would, so the
 * two time a flow with the same floating-point operations.
 */
#ifndef HELM_SIM_BANDWIDTH_CHANNEL_H
#define HELM_SIM_BANDWIDTH_CHANNEL_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace helm::sim {

/** Opaque flow handle. */
using FlowId = std::uint64_t;

/** Sentinel for invalid flows. */
inline constexpr FlowId kInvalidFlow = 0;

/**
 * One channel's active flows and its max-min fair-share arithmetic, with
 * no clock and no events: whoever drives it supplies the elapsed times
 * and arms the completions.
 *
 * Invariants:
 *  - sum of granted rates <= channel rate (within floating-point slack)
 *  - no flow exceeds its cap
 *  - allocation is max-min fair among active flows
 */
class FlowTable
{
  public:
    /**
     * Bytes below this threshold count as "delivered".  Half a byte:
     * flow progress is tracked in doubles, and a remainder below one
     * byte is arithmetic round-off, not payload.  A smaller epsilon can
     * livelock the clock — the remainder's completion delay underflows
     * the double time resolution and the completion event stops
     * advancing virtual time.
     */
    static constexpr double kByteEpsilon = 0.5;

    struct Flow
    {
        FlowId id = kInvalidFlow;
        Bytes total_bytes = 0;
        double remaining_bytes = 0.0;
        /** Per-flow ceiling; +infinity when uncapped, so it doubles as
         *  the fill-order key. */
        double limit_bps = 0.0;
        double rate_bps = 0.0; //!< current granted rate
        std::function<void()> on_complete; //!< empty in a closed form
    };

    /** The completion a fill finds: the earliest at the new rates. */
    struct Next
    {
        Seconds delay = 0.0;
        FlowId flow = kInvalidFlow;
    };

    /** @param rate Total channel bandwidth. */
    explicit FlowTable(Bandwidth rate);

    /**
     * Insert a flow of @p bytes (> 0) in fill order and count the
     * throttle event its start causes: whether the flows' max-min shares
     * now leave some flow short of what it could use alone.
     *
     * @param cap Per-flow ceiling; an is_zero() Bandwidth for uncapped.
     * @return the flow, valid until the next insert or reap.
     */
    Flow &insert(Bytes bytes, Bandwidth cap);

    /** Progress every flow by @p elapsed seconds at its granted rate
     *  (nothing when @p elapsed <= 0); a flow left at or below
     *  kByteEpsilon makes a reap due. */
    void advance(Seconds elapsed);

    /** Deliver flow @p id now: its completion fired without advancing
     *  the clock (the remainder's delay fell below the clock's
     *  resolution, late in a long run), and re-arming would repeat
     *  forever. */
    void deliver(FlowId id);

    /** Some flow is at or below kByteEpsilon and awaits its reap.  Only
     *  advance() and deliver() set it: every fill leaves each remaining
     *  flow above the epsilon. */
    bool reap_due() const { return reap_due_; }

    /** Remove every flow at or below kByteEpsilon and add its bytes to
     *  bytes_delivered().  @return the removed flows in id (start)
     *  order, valid until the next reap. */
    std::span<Flow> reap();

    /**
     * Water-fill the flows (at least one) in one pass: each takes
     * min(its limit, an even split of what is left), and the earliest
     * completion at the new rates is returned (ties to the lowest id).
     * A completion's fill (@p count_throttle) counts a throttle event
     * when contention left some flow short; a settle's does not, as its
     * starts counted theirs.
     */
    Next fill(bool count_throttle);

    bool empty() const { return flows_.empty(); }
    Bandwidth rate() const { return rate_; }

    /** Total bytes delivered across all reaped flows. */
    Bytes bytes_delivered() const { return bytes_delivered_; }

    /** Flow events (starts and completion fills) after which contention
     *  left some flow short of the rate it would get alone (max-min
     *  throttling observed). */
    std::uint64_t throttle_events() const { return throttle_events_; }

    /** Water-fill passes run so far.  An exact work count. */
    std::uint64_t fill_passes() const { return fill_passes_; }

    /** Add @p other's delivered bytes, throttle events and fill passes
     *  to this table's: a table driven in this one's place. */
    void add_counters(const FlowTable &other);

  private:
    /** Whether the current flows' max-min shares leave some flow short
     *  of what it could use alone: fill()'s share arithmetic, stopped
     *  at the first such flow. */
    bool contended() const;

    Bandwidth rate_;
    /** Active flows in fill order: limit ascending (uncapped last),
     *  flow id ascending within equal limits.  A new flow has the
     *  largest id, so it goes in at its limit's upper bound (an append
     *  when every limit is equal), and water-filling walks the vector
     *  as it stands, with no sort. */
    std::vector<Flow> flows_;
    /** reap() output: the flows finishing at one instant, by id. */
    std::vector<Flow> finished_;
    bool reap_due_ = false;
    FlowId next_flow_id_ = 1;
    Bytes bytes_delivered_ = 0;
    std::uint64_t throttle_events_ = 0;
    std::uint64_t fill_passes_ = 0;
};

/**
 * A processor-sharing link with per-flow rate caps: a FlowTable on the
 * simulation kernel's clock.
 */
class BandwidthChannel
{
  public:
    /**
     * @param simulator Owning simulation kernel; must outlive the channel.
     * @param rate Total channel bandwidth.
     */
    BandwidthChannel(Simulator &simulator, Bandwidth rate);

    ~BandwidthChannel();
    BandwidthChannel(const BandwidthChannel &) = delete;
    BandwidthChannel &operator=(const BandwidthChannel &) = delete;

    /**
     * Begin transferring @p bytes through the channel.
     *
     * @param bytes Payload size; zero-byte flows complete immediately
     *              (before start_flow returns).
     * @param cap Per-flow bandwidth ceiling; pass an is_zero() Bandwidth
     *            for "uncapped".
     * @param on_complete Invoked (once) when the last byte arrives.
     * @return Flow handle; kInvalidFlow for zero-byte flows.
     */
    FlowId start_flow(Bytes bytes, Bandwidth cap,
                      std::function<void()> on_complete);

    /** Total bytes delivered across all completed flows. */
    Bytes bytes_delivered() const { return table_.bytes_delivered(); }

    /** See FlowTable::throttle_events(). */
    std::uint64_t throttle_events() const
    {
        return table_.throttle_events();
    }

    /** Water-fill passes run so far: one per settle and one per
     *  completion fire that leaves flows active.  An exact work count,
     *  read after the run. */
    std::uint64_t fill_passes() const { return table_.fill_passes(); }

    Bandwidth rate() const { return table_.rate(); }

    /** Add the counters of @p solved, a table driven in this channel's
     *  place by a closed form, to the channel's. */
    void book(const FlowTable &solved) { table_.add_counters(solved); }

  private:
    friend class Simulator; // settles the channel and links it deferred

    /** Apply progress for the interval [last_update_, now]. */
    void advance_to_now();

    /** Cancel the pending completion event, if any. */
    void disarm();

    /** Water-fill the active flows (at least one) and arm the next
     *  completion event: a completion's re-arm (@p count_throttle), or
     *  the kernel's settle of the flows started at this instant. */
    void fill_and_arm(bool count_throttle);

    /** The completion event: advance, reap, fill, re-arm and count. */
    void on_completion();

    /** Reap the finished flows and defer each callback to a zero-delay
     *  event. */
    void reap_finished();

    Simulator &simulator_;
    FlowTable table_;
    Seconds last_update_ = 0.0;
    EventId pending_event_ = kInvalidEvent;
    /** The flow pending_event_ completes, and when it was armed. */
    FlowId pending_flow_ = kInvalidFlow;
    Seconds armed_at_ = 0.0;
    /** On the kernel's deferred list (a start awaits its settle); the
     *  list's links, maintained by Simulator. */
    bool deferred_ = false;
    BandwidthChannel *deferred_prev_ = nullptr;
    BandwidthChannel *deferred_next_ = nullptr;
};

} // namespace helm::sim

#endif // HELM_SIM_BANDWIDTH_CHANNEL_H
