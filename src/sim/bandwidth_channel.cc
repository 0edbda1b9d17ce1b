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
    if (pending_event_ != kInvalidEvent)
        simulator_.cancel(pending_event_);
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
    Flow &flow = flows_.emplace_back();
    flow.id = next_flow_id_++;
    flow.total_bytes = bytes;
    flow.remaining_bytes = static_cast<double>(bytes);
    flow.cap_bps = cap.is_zero() ? 0.0 : cap.raw();
    flow.on_complete = std::move(on_complete);
    const FlowId id = flow.id;
    recompute_and_reschedule();
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
    }
}

void
BandwidthChannel::water_fill()
{
    if (flows_.empty())
        return;
    // Sort by cap ascending (uncapped flows last) so we can peel off flows
    // whose cap is below the running fair share.  Equal caps keep flow
    // order (the addresses run in flows_ order), which makes std::sort
    // produce exactly the stable order without stable_sort's buffer.
    fill_order_.clear();
    for (Flow &flow : flows_)
        fill_order_.push_back(&flow);
    std::sort(fill_order_.begin(), fill_order_.end(),
              [](const Flow *a, const Flow *b) {
                  const double ca =
                      a->cap_bps > 0.0
                          ? a->cap_bps
                          : std::numeric_limits<double>::infinity();
                  const double cb =
                      b->cap_bps > 0.0
                          ? b->cap_bps
                          : std::numeric_limits<double>::infinity();
                  return ca < cb || (ca == cb && a < b);
              });

    double remaining_rate = rate_.raw();
    std::size_t remaining_flows = fill_order_.size();
    for (Flow *flow : fill_order_) {
        const double share =
            remaining_rate / static_cast<double>(remaining_flows);
        const double cap = flow->cap_bps > 0.0
                               ? flow->cap_bps
                               : std::numeric_limits<double>::infinity();
        flow->rate_bps = std::min(cap, share);
        remaining_rate -= flow->rate_bps;
        --remaining_flows;
    }
    if (fill_order_.size() > 1) {
        // A fill pass throttled someone if any flow got less than it
        // could use alone (its cap, or the full channel when uncapped).
        for (const Flow *flow : fill_order_) {
            const double solo = std::min(flow->cap_bps > 0.0
                                             ? flow->cap_bps
                                             : std::numeric_limits<
                                                   double>::infinity(),
                                         rate_.raw());
            if (flow->rate_bps < solo * (1.0 - 1e-9)) {
                ++throttle_events_;
                break;
            }
        }
    }
}

void
BandwidthChannel::recompute_and_reschedule()
{
    if (pending_event_ != kInvalidEvent) {
        simulator_.cancel(pending_event_);
        pending_event_ = kInvalidEvent;
    }
    reap_finished();
    if (flows_.empty())
        return;
    water_fill();
    // Next event: the earliest flow completion at current rates.
    Seconds next_completion = std::numeric_limits<Seconds>::infinity();
    for (const Flow &flow : flows_) {
        if (flow.rate_bps <= 0.0)
            continue;
        const Seconds delay = flow.remaining_bytes / flow.rate_bps;
        if (delay < next_completion) {
            next_completion = delay;
            pending_flow_ = flow.id;
        }
    }
    HELM_ASSERT(std::isfinite(next_completion),
                "active flows but no completion event (rate starvation)");
    armed_at_ = simulator_.now();
    pending_event_ = simulator_.schedule(next_completion, [this] {
        pending_event_ = kInvalidEvent;
        advance_to_now();
        if (simulator_.now() == armed_at_) {
            // The remainder's delay fell below the clock's resolution
            // (late in a long run), so firing did not advance time and
            // re-arming would repeat forever: deliver the flow now.
            for (Flow &flow : flows_) {
                if (flow.id == pending_flow_)
                    flow.remaining_bytes = 0.0;
            }
        }
        recompute_and_reschedule();
    });
}

void
BandwidthChannel::reap_finished()
{
    // Compact survivors in place; both they and the completions keep
    // flow-start order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        Flow &flow = flows_[i];
        if (flow.remaining_bytes <= kByteEpsilon) {
            bytes_delivered_ += flow.total_bytes;
            // Defer the callback to a zero-delay event so that a
            // reentrant start_flow never observes the channel mid-update.
            // Delivery order stays deterministic (FIFO at equal
            // timestamps).
            simulator_.schedule(0.0, std::move(flow.on_complete));
        } else {
            if (kept != i)
                flows_[kept] = std::move(flow);
            ++kept;
        }
    }
    flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept),
                 flows_.end());
}

} // namespace helm::sim
