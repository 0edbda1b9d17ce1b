#include "sim/bandwidth_channel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace helm::sim {

// ---------------------------------------------------------------------------
// FlowTable
// ---------------------------------------------------------------------------

FlowTable::FlowTable(Bandwidth rate) : rate_(rate)
{
    HELM_ASSERT(rate_.raw() > 0.0, "channel rate must be positive");
}

FlowTable::Flow &
FlowTable::insert(Bytes bytes, Bandwidth cap)
{
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
    // One throttle event per flow event, as if this start had filled.
    if (contended())
        ++throttle_events_;
    return flow;
}

void
FlowTable::advance(Seconds elapsed)
{
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
FlowTable::deliver(FlowId id)
{
    for (Flow &flow : flows_) {
        if (flow.id == id) {
            flow.remaining_bytes = 0.0;
            reap_due_ = true;
        }
    }
}

bool
FlowTable::contended() const
{
    if (flows_.size() < 2)
        return false;
    // fill()'s grants and test, up to the first flow left short.
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

FlowTable::Next
FlowTable::fill(bool count_throttle)
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
    Next next{std::numeric_limits<Seconds>::infinity(), kInvalidFlow};
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
        if (delay < next.delay ||
            (delay == next.delay && flow.id < next.flow)) {
            next.delay = delay;
            next.flow = flow.id;
        }
    }
    HELM_ASSERT(std::isfinite(next.delay),
                "active flows but no completion event (rate starvation)");
    if (count_throttle && throttled && flows_.size() > 1)
        ++throttle_events_;
    return next;
}

std::span<FlowTable::Flow>
FlowTable::reap()
{
    reap_due_ = false;
    finished_.clear();
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
    return finished_;
}

void
FlowTable::add_counters(const FlowTable &other)
{
    bytes_delivered_ += other.bytes_delivered_;
    throttle_events_ += other.throttle_events_;
    fill_passes_ += other.fill_passes_;
}

// ---------------------------------------------------------------------------
// BandwidthChannel
// ---------------------------------------------------------------------------

BandwidthChannel::BandwidthChannel(Simulator &simulator, Bandwidth rate)
    : simulator_(simulator), table_(rate)
{
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
    if (table_.reap_due()) {
        // The clock moved since the last flow event and left some flow
        // at the epsilon: reap it now, so its completion is scheduled
        // where an eager fill at this start would have scheduled it.
        disarm();
        reap_finished();
    }
    FlowTable::Flow &flow = table_.insert(bytes, cap);
    flow.on_complete = std::move(on_complete);
    const FlowId id = flow.id;
    // The fill itself waits for the kernel's settle.
    disarm();
    simulator_.defer(*this);
    return id;
}

void
BandwidthChannel::advance_to_now()
{
    const Seconds now = simulator_.now();
    table_.advance(now - last_update_);
    last_update_ = now;
}

void
BandwidthChannel::disarm()
{
    if (pending_event_ != kInvalidEvent) {
        simulator_.cancel(pending_event_);
        pending_event_ = kInvalidEvent;
    }
}

void
BandwidthChannel::fill_and_arm(bool count_throttle)
{
    const FlowTable::Next next = table_.fill(count_throttle);
    pending_flow_ = next.flow;
    armed_at_ = simulator_.now();
    pending_event_ =
        simulator_.schedule(next.delay, [this] { on_completion(); });
}

void
BandwidthChannel::on_completion()
{
    pending_event_ = kInvalidEvent;
    advance_to_now();
    // The remainder's delay fell below the clock's resolution (late in
    // a long run), so firing did not advance time: deliver the flow.
    if (simulator_.now() == armed_at_)
        table_.deliver(pending_flow_);
    if (table_.reap_due())
        reap_finished();
    if (!table_.empty())
        fill_and_arm(/*count_throttle=*/true);
}

void
BandwidthChannel::reap_finished()
{
    // Defer each callback to a zero-delay event so that a reentrant
    // start_flow never observes the channel mid-update.  Delivery order
    // stays deterministic (FIFO at equal timestamps).
    for (FlowTable::Flow &flow : table_.reap())
        simulator_.schedule(0.0, std::move(flow.on_complete));
}

} // namespace helm::sim
