#include "telemetry/timeseries.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace helm::telemetry {

SlidingWindow::SlidingWindow(Seconds bucket_width,
                             std::size_t bucket_count)
    : bucket_width_(bucket_width), bucket_count_(bucket_count)
{
    assert(bucket_width_ > 0.0 && "bucket width must be positive");
    assert(bucket_count_ > 0 && "need at least one bucket");
    slots_.resize(bucket_count_);
}

void
SlidingWindow::expire_through(std::int64_t bucket)
{
    if (bucket <= current_)
        return;
    // Slots whose bucket index falls out of [bucket - count + 1,
    // bucket] leave the window.  Jumping far ahead clears everything;
    // otherwise walk only the slots actually crossed.
    const std::int64_t first_live =
        bucket - static_cast<std::int64_t>(bucket_count_) + 1;
    const std::int64_t steps = bucket - current_;
    if (current_ < 0 ||
        steps >= static_cast<std::int64_t>(bucket_count_)) {
        for (Bucket &slot : slots_)
            slot = Bucket{};
        sum_ = 0.0;
        samples_ = 0;
    } else {
        for (std::int64_t b = current_ + 1; b <= bucket; ++b) {
            Bucket &slot =
                slots_[static_cast<std::size_t>(b) % bucket_count_];
            if (slot.index >= 0 && slot.index < first_live) {
                sum_ -= slot.sum;
                samples_ -= slot.samples;
            }
            slot = Bucket{};
        }
    }
    current_ = bucket;
}

void
SlidingWindow::advance(Seconds t)
{
    const std::int64_t bucket =
        static_cast<std::int64_t>(std::floor(t / bucket_width_));
    expire_through(bucket);
}

void
SlidingWindow::record(Seconds t, double value)
{
    advance(t);
    Bucket &slot =
        slots_[static_cast<std::size_t>(std::max<std::int64_t>(
                   current_, 0)) %
               bucket_count_];
    if (slot.index != current_) {
        slot.index = current_;
        slot.sum = 0.0;
        slot.samples = 0;
    }
    slot.sum += value;
    ++slot.samples;
    sum_ += value;
    ++samples_;
    total_ += value;
    ++total_samples_;
}

double
SlidingWindow::rate() const
{
    return span() > 0.0 ? sum_ / span() : 0.0;
}

double
SlidingWindow::mean() const
{
    return samples_ > 0 ? sum_ / static_cast<double>(samples_) : 0.0;
}

} // namespace helm::telemetry
