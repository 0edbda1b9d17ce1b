#include "sim/resource.h"

#include <utility>

namespace helm::sim {

FifoResource::FifoResource(Simulator &simulator) : simulator_(simulator)
{
    last_change_ = simulator_.now();
}

void
FifoResource::update_busy_integral()
{
    const Seconds now = simulator_.now();
    busy_accum_ += static_cast<double>(in_use_) * (now - last_change_);
    last_change_ = now;
}

void
FifoResource::release()
{
    update_busy_integral();
    --in_use_;
    if (!waiters_.empty()) {
        std::function<void()> next = std::move(waiters_.front());
        waiters_.pop_front();
        // Admit via a zero-delay event so release() never runs user code
        // synchronously (mirrors BandwidthChannel's deferred completions).
        // The resource is promised to that waiter meanwhile: an occupy()
        // issued before the admission fires must queue behind it.
        admitting_ = true;
        simulator_.schedule(0.0, [this, next = std::move(next)]() mutable {
            admitting_ = false;
            update_busy_integral();
            ++in_use_;
            next();
        });
    }
}

void
FifoResource::occupy(Seconds duration, std::function<void()> on_done)
{
    HELM_ASSERT(duration >= 0.0, "occupy duration must be non-negative");
    auto hold = [this, duration, on_done = std::move(on_done)]() mutable {
        simulator_.schedule(duration,
                            [this, on_done = std::move(on_done)]() mutable {
                                release();
                                on_done();
                            });
    };
    if (in_use_ == 0 && !admitting_ && waiters_.empty()) {
        update_busy_integral();
        ++in_use_;
        hold();
        return;
    }
    waiters_.push_back(std::move(hold));
}

Seconds
FifoResource::busy_time() const
{
    // Include the in-progress interval.
    return busy_accum_ + static_cast<double>(in_use_) *
                             (simulator_.now() - last_change_);
}

void
CountdownLatch::on_zero(std::function<void()> fn)
{
    HELM_ASSERT(!callback_, "latch callback set twice");
    HELM_ASSERT(static_cast<bool>(fn), "latch callback required");
    callback_ = std::move(fn);
    if (remaining_ == 0 && !fired_) {
        fired_ = true;
        callback_();
    }
}

void
CountdownLatch::arrive()
{
    HELM_ASSERT(remaining_ > 0, "latch arrive() past zero");
    --remaining_;
    if (remaining_ == 0 && callback_ && !fired_) {
        fired_ = true;
        callback_();
    }
}

} // namespace helm::sim
