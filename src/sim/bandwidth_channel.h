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
 */
#ifndef HELM_SIM_BANDWIDTH_CHANNEL_H
#define HELM_SIM_BANDWIDTH_CHANNEL_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace helm::sim {

/** Opaque flow handle. */
using FlowId = std::uint64_t;

/** Sentinel for invalid flows. */
inline constexpr FlowId kInvalidFlow = 0;

/**
 * A processor-sharing link with per-flow rate caps.
 *
 * Invariants:
 *  - sum of granted rates <= channel rate (within floating-point slack)
 *  - no flow exceeds its cap
 *  - allocation is max-min fair among active flows
 */
class BandwidthChannel
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
    Bytes bytes_delivered() const { return bytes_delivered_; }

    /** Flow events (starts and completion fires) after which
     *  contention left some flow short of the rate it would get alone
     *  (max-min throttling observed). */
    std::uint64_t throttle_events() const { return throttle_events_; }

    /** Water-fill passes run so far: one per settle and one per
     *  completion fire that leaves flows active.  An exact work count,
     *  read after the run. */
    std::uint64_t fill_passes() const { return fill_passes_; }

    Bandwidth rate() const { return rate_; }

  private:
    friend class Simulator; // settles the channel and links it deferred

    struct Flow
    {
        FlowId id = kInvalidFlow;
        Bytes total_bytes = 0;
        double remaining_bytes = 0.0;
        /** Per-flow ceiling; +infinity when uncapped, so it doubles as
         *  the fill-order key. */
        double limit_bps = 0.0;
        double rate_bps = 0.0; //!< current granted rate
        std::function<void()> on_complete;
    };

    /** Apply progress for the interval [last_update_, now]. */
    void advance_to_now();

    /** Cancel the pending completion event, if any. */
    void disarm();

    /** Whether the current flows' max-min shares leave some flow short
     *  of what it could use alone: the fill's share arithmetic, stopped
     *  at the first such flow. */
    bool contended() const;

    /** Water-fill the active flows (at least one) and arm the next
     *  completion event: a completion's re-arm, or the kernel's settle
     *  of the flows started at this instant.  @return whether
     *  contention throttled some flow (a completion counts it; a start
     *  counted it already). */
    bool fill_and_arm();

    /** The completion event: advance, reap, fill, re-arm and count. */
    void on_completion();

    /** Fire completions for flows whose remaining bytes reached zero. */
    void reap_finished();

    Simulator &simulator_;
    Bandwidth rate_;
    /** Active flows in fill order: limit ascending (uncapped last),
     *  flow id ascending within equal limits.  A new flow has the
     *  largest id, so it goes in at its limit's upper bound (an append
     *  when every limit is equal), and water-filling walks the vector
     *  as it stands, with no sort. */
    std::vector<Flow> flows_;
    /** reap_finished() scratch: the flows finishing at one instant,
     *  sorted by id so completions fire in flow-start order. */
    std::vector<Flow> finished_;
    /** Some flow is at or below kByteEpsilon and awaits its reap.
     *  Only advance_to_now() and the late-run delivery set it: every
     *  recompute leaves each remaining flow above the epsilon. */
    bool reap_due_ = false;
    FlowId next_flow_id_ = 1;
    Seconds last_update_ = 0.0;
    EventId pending_event_ = kInvalidEvent;
    /** The flow pending_event_ completes, and when it was armed. */
    FlowId pending_flow_ = kInvalidFlow;
    Seconds armed_at_ = 0.0;
    Bytes bytes_delivered_ = 0;
    std::uint64_t throttle_events_ = 0;
    std::uint64_t fill_passes_ = 0;
    /** On the kernel's deferred list (a start awaits its settle); the
     *  list's links, maintained by Simulator. */
    bool deferred_ = false;
    BandwidthChannel *deferred_prev_ = nullptr;
    BandwidthChannel *deferred_next_ = nullptr;
};

} // namespace helm::sim

#endif // HELM_SIM_BANDWIDTH_CHANNEL_H
