/**
 * @file
 * Unit tests for common/rng.h and common/summary.h.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/summary.h"

namespace helm {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.next_in_range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    // All 7 values should appear in 1000 draws.
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.next_double();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.next_gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Summary, EmptyInput)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean_discarding_first({}), 0.0);
}

TEST(Summary, BasicStats)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    // The extremes are the 0th and 100th nearest-rank percentiles.
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 100.0), 4.0);
}

TEST(Summary, MeanDiscardingFirstMatchesPaperRule)
{
    // "arithmetic mean across all its values except the first"
    EXPECT_DOUBLE_EQ(mean_discarding_first({100.0, 2.0, 4.0}), 3.0);
    // A single sample has nothing to discard against.
    EXPECT_DOUBLE_EQ(mean_discarding_first({7.0}), 7.0);
}

TEST(Summary, PercentileNearestRank)
{
    // Hand-computed against the nearest-rank definition:
    // rank = ceil(p/100 * N), clamped to [1, N].
    std::vector<double> v{35, 20, 15, 50, 40}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 0.0), 15.0);
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 30.0), 20.0);
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 40.0), 20.0);
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 50.0), 35.0);
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 100.0), 50.0);
    // Out-of-range p clamps; empty input yields 0.
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 150.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile_nearest_rank({}, 50.0), 0.0);
    // A lone sample is every percentile.
    EXPECT_DOUBLE_EQ(percentile_nearest_rank({42.0}, 1.0), 42.0);
    EXPECT_DOUBLE_EQ(percentile_nearest_rank({42.0}, 99.0), 42.0);

    // Selection must return exactly what a full sort returns.  The
    // reference is the sort-based definition.
    auto by_sort = [](std::vector<double> values, double p) {
        if (values.empty())
            return 0.0;
        p = std::clamp(p, 0.0, 100.0);
        std::sort(values.begin(), values.end());
        const double exact = p / 100.0 * static_cast<double>(values.size());
        std::size_t rank = static_cast<std::size_t>(std::ceil(exact));
        rank = std::clamp<std::size_t>(rank, 1, values.size());
        return values[rank - 1];
    };
    const double percents[] = {0.0, 1e-9, 50.0, 90.0, 95.0,
                               99.0, 99.9, 100.0, -5.0, 150.0};
    Rng rng(2025);
    auto check = [&](std::size_t n, bool ties) {
        const double distinct[] = {0.25, -3.0, 7.5, 1e-6, 42.0};
        std::vector<double> sample(n);
        for (double &v : sample)
            v = ties ? distinct[rng.next_below(5)]
                     : rng.next_gaussian() * 1e3;
        const std::vector<double> before = sample;
        for (const double p : percents) {
            EXPECT_EQ(percentile_nearest_rank(sample, p), by_sort(sample, p))
                << "n=" << n << " ties=" << ties << " p=" << p;
            // The lvalue argument is copied, never reordered.
            ASSERT_EQ(sample, before);
        }
    };
    for (std::size_t n = 1; n <= 300; ++n) {
        check(n, true);
        check(n, false);
    }
    check(100000, true);
    check(100000, false);
}

} // namespace
} // namespace helm
