#include "telemetry/burnrate.h"

#include <algorithm>
#include <cassert>

namespace helm::telemetry {
namespace {

SlidingWindow
make_window(Seconds span, std::size_t buckets)
{
    return SlidingWindow(span / static_cast<double>(buckets), buckets);
}

} // namespace

BurnRateEvaluator::BurnRateEvaluator(BurnRatePolicy policy)
    : policy_(std::move(policy)),
      fast_good_(make_window(policy_.fast_window, policy_.buckets)),
      fast_bad_(make_window(policy_.fast_window, policy_.buckets)),
      slow_good_(make_window(policy_.slow_window, policy_.buckets)),
      slow_bad_(make_window(policy_.slow_window, policy_.buckets))
{
    assert(policy_.objective >= 0.0 && policy_.objective < 1.0 &&
           "objective must leave a non-empty error budget");
    assert(policy_.fast_window <= policy_.slow_window &&
           "fast window must not exceed the slow window");
}

double
BurnRateEvaluator::burn_of(const SlidingWindow &good,
                           const SlidingWindow &bad, double objective)
{
    const double total = good.sum() + bad.sum();
    if (total <= 0.0)
        return 0.0; // zero traffic burns no budget
    const double bad_fraction = bad.sum() / total;
    return bad_fraction / (1.0 - objective);
}

void
BurnRateEvaluator::observe(Seconds t, std::uint64_t good,
                           std::uint64_t bad)
{
    fast_good_.record(t, static_cast<double>(good));
    fast_bad_.record(t, static_cast<double>(bad));
    slow_good_.record(t, static_cast<double>(good));
    slow_bad_.record(t, static_cast<double>(bad));
    evaluate();
}

void
BurnRateEvaluator::advance(Seconds t)
{
    fast_good_.advance(t);
    fast_bad_.advance(t);
    slow_good_.advance(t);
    slow_bad_.advance(t);
    evaluate();
}

double
BurnRateEvaluator::fast_burn() const
{
    return burn_of(fast_good_, fast_bad_, policy_.objective);
}

double
BurnRateEvaluator::slow_burn() const
{
    return burn_of(slow_good_, slow_bad_, policy_.objective);
}

void
BurnRateEvaluator::evaluate()
{
    const double fast = fast_burn();
    const double slow = slow_burn();
    peak_burn_ = std::max(peak_burn_, std::min(fast, slow));
    if (!firing_) {
        if (fast >= policy_.threshold && slow >= policy_.threshold) {
            firing_ = true;
            ++fired_;
        }
    } else {
        const double clear_at =
            policy_.threshold * policy_.clear_fraction;
        if (fast < clear_at && slow < clear_at) {
            firing_ = false;
            ++cleared_;
        }
    }
}

} // namespace helm::telemetry
