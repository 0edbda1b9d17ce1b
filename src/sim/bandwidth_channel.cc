#include "sim/bandwidth_channel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace helm::sim {

BandwidthChannel::BandwidthChannel(Simulator &simulator, Bandwidth rate)
    : simulator_(simulator), rate_(rate)
{
    HELM_ASSERT(rate_.raw() > 0.0, "channel rate must be positive");
    last_update_ = simulator_.now();
}

BandwidthChannel::~BandwidthChannel()
{
    simulator_.undefer(*this);
    disarm();
}

FlowId
BandwidthChannel::start_flow(Bytes bytes, Bandwidth cap,
                             std::function<void()> on_complete)
{
    HELM_ASSERT(static_cast<bool>(on_complete),
                "flow completion callback required");
    if (bytes == 0) {
        on_complete();
        return kInvalidFlow;
    }
    advance_to_now();
    if (reap_due_) {
        // The clock moved since the last flow event and left some flow
        // at the epsilon: reap it now, so its completion is scheduled
        // where an eager fill at this start would have scheduled it.
        disarm();
        reap_finished();
    }
    const double limit = cap.raw() > 0.0
                             ? cap.raw()
                             : std::numeric_limits<double>::infinity();
    // Upper bound: after every flow with the same limit, all of which
    // have smaller ids.
    const auto at = std::upper_bound(
        flows_.begin(), flows_.end(), limit,
        [](double l, const Flow &flow) { return l < flow.limit_bps; });
    Flow &flow = *flows_.emplace(at);
    flow.id = next_flow_id_++;
    flow.total_bytes = bytes;
    flow.remaining_bytes = static_cast<double>(bytes);
    flow.limit_bps = limit;
    flow.on_complete = std::move(on_complete);
    const FlowId id = flow.id;
    // One throttle event per flow event, as if this start had filled;
    // the fill itself waits for the kernel's settle.
    if (contended())
        ++throttle_events_;
    disarm();
    simulator_.defer(*this);
    return id;
}

void
BandwidthChannel::advance_to_now()
{
    const Seconds now = simulator_.now();
    const Seconds elapsed = now - last_update_;
    last_update_ = now;
    if (elapsed <= 0.0)
        return;
    for (Flow &flow : flows_) {
        flow.remaining_bytes -= flow.rate_bps * elapsed;
        if (flow.remaining_bytes < 0.0)
            flow.remaining_bytes = 0.0;
        if (flow.remaining_bytes <= kByteEpsilon)
            reap_due_ = true;
    }
}

void
BandwidthChannel::disarm()
{
    if (pending_event_ != kInvalidEvent) {
        simulator_.cancel(pending_event_);
        pending_event_ = kInvalidEvent;
    }
}

bool
BandwidthChannel::contended() const
{
    if (flows_.size() < 2)
        return false;
    // fill_and_arm()'s grants and test, up to the first flow left
    // short.
    const double link = rate_.raw();
    double remaining_rate = link;
    std::size_t remaining_flows = flows_.size();
    for (const Flow &flow : flows_) {
        const double share =
            remaining_rate / static_cast<double>(remaining_flows);
        const double rate = std::min(flow.limit_bps, share);
        if (rate < std::min(flow.limit_bps, link) * (1.0 - 1e-9))
            return true;
        remaining_rate -= rate;
        --remaining_flows;
    }
    return false;
}

bool
BandwidthChannel::fill_and_arm()
{
    ++fill_passes_;
    // One pass in fill order.  Max-min water-filling: each flow in turn
    // takes min(its limit, an even split of what is left), so flows
    // whose limit is below the running fair share are peeled off first.
    // The same pass notes whether contention left any flow short of
    // what it could use alone (its limit, or the full channel), and
    // finds the earliest completion at the new rates (ties to the
    // lowest id, i.e. the earliest-started flow).
    const double link = rate_.raw();
    double remaining_rate = link;
    std::size_t remaining_flows = flows_.size();
    bool throttled = false;
    Seconds next_completion = std::numeric_limits<Seconds>::infinity();
    FlowId next_flow = kInvalidFlow;
    for (Flow &flow : flows_) {
        const double share =
            remaining_rate / static_cast<double>(remaining_flows);
        flow.rate_bps = std::min(flow.limit_bps, share);
        remaining_rate -= flow.rate_bps;
        --remaining_flows;
        if (flow.rate_bps < std::min(flow.limit_bps, link) * (1.0 - 1e-9))
            throttled = true;
        if (flow.rate_bps <= 0.0)
            continue;
        const Seconds delay = flow.remaining_bytes / flow.rate_bps;
        if (delay < next_completion ||
            (delay == next_completion && flow.id < next_flow)) {
            next_completion = delay;
            next_flow = flow.id;
        }
    }
    HELM_ASSERT(std::isfinite(next_completion),
                "active flows but no completion event (rate starvation)");
    pending_flow_ = next_flow;
    armed_at_ = simulator_.now();
    pending_event_ =
        simulator_.schedule(next_completion, [this] { on_completion(); });
    return throttled && flows_.size() > 1;
}

void
BandwidthChannel::on_completion()
{
    pending_event_ = kInvalidEvent;
    advance_to_now();
    if (simulator_.now() == armed_at_) {
        // The remainder's delay fell below the clock's resolution
        // (late in a long run), so firing did not advance time and
        // re-arming would repeat forever: deliver the flow now.
        for (Flow &flow : flows_) {
            if (flow.id == pending_flow_) {
                flow.remaining_bytes = 0.0;
                reap_due_ = true;
            }
        }
    }
    if (reap_due_)
        reap_finished();
    if (flows_.empty())
        return;
    if (fill_and_arm())
        ++throttle_events_;
}

void
BandwidthChannel::reap_finished()
{
    reap_due_ = false;
    // Compact survivors in place, keeping fill order; the finished
    // flows (few at any one instant) complete in flow-start order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        Flow &flow = flows_[i];
        if (flow.remaining_bytes <= kByteEpsilon) {
            bytes_delivered_ += flow.total_bytes;
            finished_.push_back(std::move(flow));
        } else {
            if (kept != i)
                flows_[kept] = std::move(flow);
            ++kept;
        }
    }
    flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept),
                 flows_.end());
    std::sort(finished_.begin(), finished_.end(),
              [](const Flow &a, const Flow &b) { return a.id < b.id; });
    // Defer each callback to a zero-delay event so that a reentrant
    // start_flow never observes the channel mid-update.  Delivery order
    // stays deterministic (FIFO at equal timestamps).
    for (Flow &flow : finished_)
        simulator_.schedule(0.0, std::move(flow.on_complete));
    finished_.clear();
}

} // namespace helm::sim
