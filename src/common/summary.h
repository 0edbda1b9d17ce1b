/**
 * @file
 * Small descriptive-statistics helpers.
 *
 * The paper reports "the arithmetic mean across all its values except the
 * first, which we discard to account for cold start effects" — that exact
 * reduction lives here (mean_discarding_first) next to the usual
 * mean/min/max/stddev/percentile reductions the benches need.
 */
#ifndef HELM_COMMON_SUMMARY_H
#define HELM_COMMON_SUMMARY_H

#include <cstddef>
#include <vector>

namespace helm {

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &values);

/**
 * Mean of values[1..], per the paper's cold-start discard rule.  If only
 * one value exists it is returned as-is (nothing to discard against).
 */
double mean_discarding_first(const std::vector<double> &values);

/**
 * Exact nearest-rank percentile: the ceil(p/100 * N)-th smallest value
 * (1-indexed, rank clamped to [1, N]), so the result is always a member
 * of the sample — the convention SLO reporting uses for p50/p90/p99.
 * 0 for empty input; p is clamped to [0, 100].
 *
 * Selects the order statistic in place (std::nth_element) on the
 * by-value parameter rather than sorting, so each call costs expected
 * O(N); callers need not pre-sort.  An lvalue argument is copied and
 * left in its original order; a temporary moves in at no copy.
 */
double percentile_nearest_rank(std::vector<double> values, double p);

} // namespace helm

#endif // HELM_COMMON_SUMMARY_H
