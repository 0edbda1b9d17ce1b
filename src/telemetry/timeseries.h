/**
 * @file
 * Sim-time sliding-window time-series.
 *
 * A SlidingWindow is a ring of fixed-width buckets over the simulation
 * clock.  `record(t, v)` lands v in bucket floor(t / width); advancing
 * time expires buckets older than the window and folds them out of the
 * running sums, so sum/rate/mean queries are O(1) and memory is
 * O(bucket_count) regardless of how many samples a 1M-request run
 * produces.  Samples must arrive in non-decreasing time order (the DES
 * guarantees this), which keeps the structure deterministic.
 */
#ifndef HELM_TELEMETRY_TIMESERIES_H
#define HELM_TELEMETRY_TIMESERIES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace helm::telemetry {

class SlidingWindow
{
  public:
    /** @p bucket_width seconds per bucket, @p bucket_count buckets. */
    SlidingWindow(Seconds bucket_width, std::size_t bucket_count);

    /** Window span in seconds (width * count). */
    Seconds span() const { return bucket_width_ * bucket_count_; }
    Seconds bucket_width() const { return bucket_width_; }
    std::size_t bucket_count() const { return bucket_count_; }

    /**
     * Add @p value at sim time @p t.  @p t must be >= the last
     * recorded time; earlier samples are clamped into the current
     * bucket (never reordered).
     */
    void record(Seconds t, double value);

    /** Advance the clock without adding a sample (expires buckets). */
    void advance(Seconds t);

    /** Sum of values inside the window ending at the last advance. */
    double sum() const { return sum_; }
    /** Samples inside the window. */
    std::uint64_t samples() const { return samples_; }
    /** sum() / span() — a per-second rate over the window. */
    double rate() const;
    /** sum() / samples(), 0 when the window is empty. */
    double mean() const;

    /** Lifetime totals (not windowed). */
    double total() const { return total_; }
    std::uint64_t total_samples() const { return total_samples_; }

  private:
    struct Bucket
    {
        std::int64_t index = -1; //!< bucket number, -1 = empty slot
        double sum = 0.0;
        std::uint64_t samples = 0;
    };

    void expire_through(std::int64_t bucket);

    Seconds bucket_width_;
    std::size_t bucket_count_;
    std::vector<Bucket> slots_;
    std::int64_t current_ = -1; //!< newest bucket index seen
    double sum_ = 0.0;
    std::uint64_t samples_ = 0;
    double total_ = 0.0;
    std::uint64_t total_samples_ = 0;
};

} // namespace helm::telemetry

#endif // HELM_TELEMETRY_TIMESERIES_H
