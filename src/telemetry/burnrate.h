/**
 * @file
 * Multi-window SLO burn-rate evaluation.
 *
 * Classic SRE shape: an SLO tolerates an error budget of
 * (1 - objective); the burn rate of a window is
 *
 *     burn = bad_fraction / (1 - objective)
 *
 * so burn 1.0 spends the budget exactly on schedule.  An alert pairs a
 * short "fast" window (catches new regressions quickly) with a long
 * "slow" window (confirms they are sustained) and fires only when BOTH
 * exceed the threshold; it clears with hysteresis once both fall below
 * threshold * clear_fraction.  Zero-traffic windows burn nothing.
 *
 * Everything runs on the simulation clock, so evaluation is
 * deterministic and replays byte-identically.
 */
#ifndef HELM_TELEMETRY_BURNRATE_H
#define HELM_TELEMETRY_BURNRATE_H

#include <cstdint>
#include <string>

#include "telemetry/timeseries.h"

namespace helm::telemetry {

/** One burn-rate alert rule. */
struct BurnRatePolicy
{
    std::string slo;          //!< e.g. "availability", "latency"
    double objective = 0.999; //!< target good fraction in [0, 1)
    Seconds fast_window = 60.0;
    Seconds slow_window = 600.0;
    double threshold = 1.0;      //!< fire when both burns >= this
    double clear_fraction = 0.5; //!< clear below threshold * this
    std::size_t buckets = 60;    //!< ring resolution per window
};

class BurnRateEvaluator
{
  public:
    explicit BurnRateEvaluator(BurnRatePolicy policy);

    const BurnRatePolicy &policy() const { return policy_; }

    /** Feed @p good + @p bad events observed at sim time @p t. */
    void observe(Seconds t, std::uint64_t good, std::uint64_t bad);

    /** Advance the clock (expiring windows) and re-evaluate. */
    void advance(Seconds t);

    bool firing() const { return firing_; }
    double fast_burn() const;
    double slow_burn() const;
    /** Largest simultaneous (min of fast/slow) burn ever seen. */
    double peak_burn() const { return peak_burn_; }

    std::uint64_t fired_count() const { return fired_; }
    std::uint64_t cleared_count() const { return cleared_; }

  private:
    static double burn_of(const SlidingWindow &good,
                          const SlidingWindow &bad, double objective);
    void evaluate();

    BurnRatePolicy policy_;
    SlidingWindow fast_good_, fast_bad_;
    SlidingWindow slow_good_, slow_bad_;
    bool firing_ = false;
    double peak_burn_ = 0.0;
    std::uint64_t fired_ = 0;
    std::uint64_t cleared_ = 0;
};

} // namespace helm::telemetry

#endif // HELM_TELEMETRY_BURNRATE_H
