/**
 * @file
 * Max-min fair-share bandwidth channel.
 *
 * Models a shared link (PCIe, a memory device's read port, a disk) as a
 * processor-sharing server: all active flows progress simultaneously, each
 * receiving a max-min fair share of the channel rate, optionally capped by
 * a per-flow rate (e.g. a flow sourced from Optane cannot exceed Optane's
 * read bandwidth even if PCIe has headroom).  Rates are recomputed by
 * water-filling whenever a flow arrives or departs.
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

    /** Water-fill passes where contention left some flow short of the
     *  rate it would get alone (max-min throttling observed). */
    std::uint64_t throttle_events() const { return throttle_events_; }

    Bandwidth rate() const { return rate_; }

  private:
    struct Flow
    {
        FlowId id = kInvalidFlow;
        Bytes total_bytes = 0;
        double remaining_bytes = 0.0;
        double cap_bps = 0.0;  //!< 0 means uncapped
        double rate_bps = 0.0; //!< current granted rate
        std::function<void()> on_complete;
    };

    /** Apply progress for the interval [last_update_, now]. */
    void advance_to_now();

    /** Re-run water-filling and reschedule the next completion event. */
    void recompute_and_reschedule();

    /** Max-min fair allocation over current flows. */
    void water_fill();

    /** Fire completions for flows whose remaining bytes reached zero. */
    void reap_finished();

    Simulator &simulator_;
    Bandwidth rate_;
    /** Active flows in id (= start) order: ids are monotone, so
     *  appending keeps the order and reaping compacts in place, which
     *  keeps completions firing in flow-start order. */
    std::vector<Flow> flows_;
    std::vector<Flow *> fill_order_; //!< water_fill() scratch
    FlowId next_flow_id_ = 1;
    Seconds last_update_ = 0.0;
    EventId pending_event_ = kInvalidEvent;
    /** The flow pending_event_ completes, and when it was armed. */
    FlowId pending_flow_ = kInvalidFlow;
    Seconds armed_at_ = 0.0;
    Bytes bytes_delivered_ = 0;
    std::uint64_t throttle_events_ = 0;
};

} // namespace helm::sim

#endif // HELM_SIM_BANDWIDTH_CHANNEL_H
