/**
 * @file
 * Tests for the sim-time sliding window (telemetry/timeseries.h):
 * bucket accounting, expiry at the window edge, far-jump clears,
 * out-of-order clamping, and the windowed-vs-lifetime split.
 */
#include <gtest/gtest.h>

#include "telemetry/timeseries.h"

namespace helm::telemetry {
namespace {

TEST(SlidingWindow, RecordsSumRateMeanAndLifetime)
{
    SlidingWindow window(1.0, 4);
    EXPECT_DOUBLE_EQ(window.span(), 4.0);
    window.record(0.5, 2.0);
    window.record(1.5, 3.0);

    EXPECT_DOUBLE_EQ(window.sum(), 5.0);
    EXPECT_EQ(window.samples(), 2u);
    EXPECT_DOUBLE_EQ(window.rate(), 5.0 / 4.0);
    EXPECT_DOUBLE_EQ(window.mean(), 2.5);
    EXPECT_DOUBLE_EQ(window.total(), 5.0);
    EXPECT_EQ(window.total_samples(), 2u);
}

TEST(SlidingWindow, SameBucketAccumulates)
{
    SlidingWindow window(1.0, 4);
    window.record(2.1, 1.0);
    window.record(2.9, 4.0);
    window.record(3.5, 7.0);
    EXPECT_DOUBLE_EQ(window.sum(), 12.0);
    EXPECT_EQ(window.samples(), 3u);

    // Bucket 2 leaves the window whole: both its samples expire at once.
    window.advance(6.0); // live [3, 6]
    EXPECT_DOUBLE_EQ(window.sum(), 7.0);
    EXPECT_EQ(window.samples(), 1u);
}

TEST(SlidingWindow, BucketsExpireAtTheWindowEdge)
{
    SlidingWindow window(1.0, 3);
    window.record(0.5, 1.0);
    window.record(1.5, 2.0);
    window.record(2.5, 4.0);
    EXPECT_DOUBLE_EQ(window.sum(), 7.0);

    // Bucket 3 becomes current: live buckets are [1, 3], bucket 0 out.
    window.advance(3.0);
    EXPECT_DOUBLE_EQ(window.sum(), 6.0);
    EXPECT_EQ(window.samples(), 2u);

    window.advance(4.0); // live [2, 4]
    EXPECT_DOUBLE_EQ(window.sum(), 4.0);
    EXPECT_EQ(window.samples(), 1u);

    // Lifetime totals never expire.
    EXPECT_DOUBLE_EQ(window.total(), 7.0);
    EXPECT_EQ(window.total_samples(), 3u);
}

TEST(SlidingWindow, FarJumpClearsTheWholeWindow)
{
    SlidingWindow window(1.0, 3);
    window.record(0.5, 1.0);
    window.record(1.5, 2.0);
    window.advance(1000.0);
    EXPECT_DOUBLE_EQ(window.sum(), 0.0);
    EXPECT_EQ(window.samples(), 0u);
    EXPECT_DOUBLE_EQ(window.mean(), 0.0);
    EXPECT_DOUBLE_EQ(window.total(), 3.0);
}

TEST(SlidingWindow, EarlierSampleClampsIntoTheCurrentBucket)
{
    SlidingWindow window(1.0, 4);
    window.record(5.5, 1.0);
    // Time never goes backwards in the DES; a stray earlier sample
    // lands in the newest bucket instead of resurrecting an old one.
    window.record(4.2, 2.0);
    EXPECT_DOUBLE_EQ(window.sum(), 3.0);
    // Both live in bucket 5: at 8.0 (live [5, 8]) bucket 4 would have
    // expired, but the pair is still counted.
    window.advance(8.0);
    EXPECT_DOUBLE_EQ(window.sum(), 3.0);
    EXPECT_EQ(window.samples(), 2u);
}

TEST(SlidingWindow, EmptyWindowQueriesAreZero)
{
    SlidingWindow window(0.5, 8);
    EXPECT_DOUBLE_EQ(window.sum(), 0.0);
    EXPECT_DOUBLE_EQ(window.rate(), 0.0);
    EXPECT_DOUBLE_EQ(window.mean(), 0.0);
    EXPECT_EQ(window.samples(), 0u);
}

} // namespace
} // namespace helm::telemetry
