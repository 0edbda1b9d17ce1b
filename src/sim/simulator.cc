#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/bandwidth_channel.h"

namespace helm::sim {

std::uint32_t
Simulator::acquire_slot()
{
    if (free_head_ != kNoFreeSlot) {
        const std::uint32_t slot = free_head_;
        free_head_ = records_[slot].next_free;
        return slot;
    }
    HELM_ASSERT(records_.size() < kNoFreeSlot,
                "event slab exhausted the 32-bit slot space");
    records_.emplace_back();
    return static_cast<std::uint32_t>(records_.size() - 1);
}

void
Simulator::release_slot(std::uint32_t slot)
{
    EventRecord &record = records_[slot];
    record.fn = nullptr; // free captured state promptly
    ++record.generation; // invalidates the queue entry and the EventId
    record.next_free = free_head_;
    free_head_ = slot;
    --live_;
}

void
Simulator::near_push(const HeapEntry &entry)
{
    near_.push_back(entry);
    std::size_t child = near_.size() - 1;
    while (child > 0) {
        const std::size_t parent = (child - 1) / kArity;
        if (!precedes(near_[child], near_[parent]))
            break;
        std::swap(near_[child], near_[parent]);
        child = parent;
    }
}

void
Simulator::near_sift_down(std::size_t hole, const HeapEntry &value)
{
    const std::size_t size = near_.size();
    for (;;) {
        const std::size_t first_child = hole * kArity + 1;
        if (first_child >= size)
            break;
        std::size_t best = first_child;
        const std::size_t end = std::min(first_child + kArity, size);
        for (std::size_t child = first_child + 1; child < end; ++child) {
            if (precedes(near_[child], near_[best]))
                best = child;
        }
        if (!precedes(near_[best], value))
            break;
        near_[hole] = near_[best];
        hole = best;
    }
    near_[hole] = value;
}

Simulator::HeapEntry
Simulator::near_pop()
{
    const HeapEntry top = near_.front();
    const HeapEntry last = near_.back();
    near_.pop_back();
    if (!near_.empty())
        near_sift_down(0, last);
    return top;
}

void
Simulator::refill_near()
{
    // Pass 1: compact cancelled entries out of the far tier (their
    // records were already released; this reclaims the queue slots)
    // while finding the time range of what survives.
    std::size_t out = 0;
    Seconds min_when = std::numeric_limits<Seconds>::infinity();
    Seconds max_when = -std::numeric_limits<Seconds>::infinity();
    for (const HeapEntry &entry : far_) {
        if (!entry_live(entry))
            continue;
        far_[out++] = entry;
        min_when = std::min(min_when, entry.when);
        max_when = std::max(max_when, entry.when);
    }
    far_.resize(out);
    if (far_.empty())
        return;

    // Advance the horizon so that roughly max(kNearTarget, |far|/8)
    // entries move near: a small cache-resident batch in steady state,
    // a constant fraction when the far tier is huge so the total
    // refill-scan work stays linear in events processed.
    const std::size_t target = std::max(kNearTarget, far_.size() / 8);
    if (far_.size() <= target || max_when <= min_when) {
        horizon_ = max_when;
    } else {
        const Seconds span = (max_when - min_when) *
                             (static_cast<double>(target) /
                              static_cast<double>(far_.size()));
        horizon_ = min_when + span;
    }

    // Pass 2: partition against the new horizon.  At least the
    // minimum-time entry always moves, so refill makes progress.
    out = 0;
    for (const HeapEntry &entry : far_) {
        if (entry.when <= horizon_)
            near_.push_back(entry);
        else
            far_[out++] = entry;
    }
    far_.resize(out);

    // Floyd-heapify the batch: O(batch), cheaper than repeated pushes.
    if (near_.size() > 1) {
        for (std::size_t i = (near_.size() - 2) / kArity + 1; i-- > 0;) {
            const HeapEntry value = near_[i];
            near_sift_down(i, value);
        }
    }
}

bool
Simulator::settle_head()
{
    for (;;) {
        while (!near_.empty()) {
            if (entry_live(near_.front()))
                return true;
            near_pop(); // cancelled; discard the stale entry
        }
        if (far_.empty())
            return false;
        refill_near();
    }
}

EventId
Simulator::schedule(Seconds delay, std::function<void()> fn)
{
    HELM_ASSERT(delay >= 0.0, "cannot schedule events in the past");
    return schedule_at(now_ + delay, std::move(fn));
}

EventId
Simulator::schedule_at(Seconds when, std::function<void()> fn)
{
    HELM_ASSERT(when >= now_, "cannot schedule events before now()");
    HELM_ASSERT(static_cast<bool>(fn), "cannot schedule a null callback");
    if (deferred_head_ != nullptr)
        settle_deferred();
    const std::uint32_t slot = acquire_slot();
    EventRecord &record = records_[slot];
    record.fn = std::move(fn);
    const HeapEntry entry{when, next_seq_++, slot, record.generation};
    if (when <= horizon_)
        near_push(entry);
    else
        far_.push_back(entry);
    ++live_;
    return (static_cast<EventId>(slot) + 1) << 32 | record.generation;
}

bool
Simulator::cancel(EventId id)
{
    const std::uint64_t slot_plus_one = id >> 32;
    if (slot_plus_one == 0 || slot_plus_one > records_.size())
        return false;
    const std::uint32_t slot =
        static_cast<std::uint32_t>(slot_plus_one - 1);
    const std::uint32_t generation =
        static_cast<std::uint32_t>(id & 0xffffffffu);
    if (records_[slot].generation != generation)
        return false; // already fired, already cancelled, or reused
    release_slot(slot);
    return true;
}

bool
Simulator::step()
{
    if (deferred_head_ != nullptr)
        settle_deferred();
    if (!settle_head())
        return false;
    const HeapEntry entry = near_pop();
    std::function<void()> fn = std::move(records_[entry.slot].fn);
    release_slot(entry.slot);
    now_ = entry.when;
    ++executed_;
    fn();
    return true;
}

void
Simulator::defer(BandwidthChannel &channel)
{
    if (channel.deferred_) {
        if (deferred_tail_ == &channel)
            return; // already the last one touched
        undefer(channel);
    }
    channel.deferred_ = true;
    channel.deferred_prev_ = deferred_tail_;
    channel.deferred_next_ = nullptr;
    if (deferred_tail_ != nullptr)
        deferred_tail_->deferred_next_ = &channel;
    else
        deferred_head_ = &channel;
    deferred_tail_ = &channel;
    ++deferred_count_;
}

void
Simulator::undefer(BandwidthChannel &channel)
{
    if (!channel.deferred_)
        return;
    BandwidthChannel *prev = channel.deferred_prev_;
    BandwidthChannel *next = channel.deferred_next_;
    (prev != nullptr ? prev->deferred_next_ : deferred_head_) = next;
    (next != nullptr ? next->deferred_prev_ : deferred_tail_) = prev;
    channel.deferred_ = false;
    channel.deferred_prev_ = channel.deferred_next_ = nullptr;
    --deferred_count_;
}

void
Simulator::settle_deferred()
{
    // Detach the whole list first: each settle schedules through
    // schedule_at(), which must not settle the channels behind it out
    // of turn.  A settle only fills and arms, so none joins the list.
    BandwidthChannel *channel = deferred_head_;
    deferred_head_ = deferred_tail_ = nullptr;
    while (channel != nullptr) {
        BandwidthChannel *next = channel->deferred_next_;
        channel->deferred_ = false;
        channel->deferred_prev_ = channel->deferred_next_ = nullptr;
        --deferred_count_;
        // Its starts' throttle events were counted as they started.
        channel->fill_and_arm(/*count_throttle=*/false);
        channel = next;
    }
}

void
Simulator::run()
{
    while (step()) {
    }
}

} // namespace helm::sim
