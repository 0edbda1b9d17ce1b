/**
 * @file
 * Tests for the multi-window SLO burn-rate evaluator
 * (telemetry/burnrate.h): burn arithmetic, the both-windows firing
 * rule, hysteresis on clear, zero-traffic behaviour, and peak-burn
 * tracking.
 */
#include <gtest/gtest.h>

#include "telemetry/burnrate.h"

namespace helm::telemetry {
namespace {

constexpr double kTol = 1e-12;

BurnRatePolicy
simple_policy()
{
    BurnRatePolicy policy;
    policy.slo = "availability";
    policy.objective = 0.9; // error budget 0.1
    policy.fast_window = 10.0;
    policy.slow_window = 10.0;
    policy.threshold = 1.0;
    policy.clear_fraction = 0.5;
    policy.buckets = 10;
    return policy;
}

TEST(BurnRate, BurnIsBadFractionOverBudget)
{
    BurnRateEvaluator eval(simple_policy());
    eval.advance(0.4);
    EXPECT_FALSE(eval.firing());
    eval.observe(0.5, 9, 1); // bad fraction 0.1 / budget 0.1 = 1.0
    EXPECT_NEAR(eval.fast_burn(), 1.0, kTol);
    EXPECT_NEAR(eval.slow_burn(), 1.0, kTol);
    // Burn 1.0 meets the threshold exactly: spends the budget on
    // schedule, and >= fires.
    EXPECT_TRUE(eval.firing());
    EXPECT_EQ(eval.fired_count(), 1u);
    EXPECT_EQ(eval.cleared_count(), 0u);
}

TEST(BurnRate, FiringNeedsBothWindowsOverThreshold)
{
    BurnRatePolicy policy = simple_policy();
    policy.fast_window = 10.0;
    policy.slow_window = 100.0;
    BurnRateEvaluator eval(policy);

    // History: plenty of good traffic inside the slow window only.
    eval.observe(5.0, 190, 0);
    // A burst of failures at t=95: the fast window sees only the
    // burst (burn 10), but the slow window still holds the history
    // (bad fraction 10/200 -> burn 0.5 < 1).
    eval.observe(95.0, 0, 10);
    EXPECT_NEAR(eval.fast_burn(), 10.0, kTol);
    EXPECT_NEAR(eval.slow_burn(), 0.5, kTol);
    EXPECT_FALSE(eval.firing());
    EXPECT_EQ(eval.fired_count(), 0u);
    // Peak burn tracks min(fast, slow): the slow window's 0.5 caps it,
    // never the fast window's 10.
    EXPECT_NEAR(eval.peak_burn(), 0.5, kTol);

    // Sustained failures push the slow window over too -> fires.
    eval.observe(96.0, 0, 200);
    EXPECT_GE(eval.slow_burn(), 1.0);
    EXPECT_TRUE(eval.firing());
    EXPECT_EQ(eval.fired_count(), 1u);
}

TEST(BurnRate, ClearsWithHysteresis)
{
    BurnRateEvaluator eval(simple_policy());
    eval.observe(1.0, 0, 1); // burn 10 -> fires
    ASSERT_TRUE(eval.firing());

    // Recovery: bad fraction 1/15 -> burn 0.667.  Below the firing
    // threshold but above threshold * clear_fraction = 0.5, so the
    // alert holds (no flapping).
    eval.observe(2.0, 14, 0);
    EXPECT_LT(eval.fast_burn(), 1.0);
    EXPECT_GT(eval.fast_burn(), 0.5);
    EXPECT_TRUE(eval.firing());
    EXPECT_EQ(eval.cleared_count(), 0u);

    // More good traffic: bad fraction 1/35 -> burn 0.286 < 0.5.
    eval.observe(3.0, 20, 0);
    EXPECT_LT(eval.fast_burn(), 0.5);
    EXPECT_FALSE(eval.firing());
    EXPECT_EQ(eval.cleared_count(), 1u);
    // One fire and one clear: the hold above did not flap.
    EXPECT_EQ(eval.fired_count(), 1u);
}

TEST(BurnRate, ZeroTrafficBurnsNothing)
{
    BurnRateEvaluator eval(simple_policy());
    eval.advance(5.0);
    EXPECT_DOUBLE_EQ(eval.fast_burn(), 0.0);
    EXPECT_DOUBLE_EQ(eval.slow_burn(), 0.0);
    EXPECT_FALSE(eval.firing());
    EXPECT_DOUBLE_EQ(eval.peak_burn(), 0.0);

    // A firing alert clears once the traffic ages out of both windows
    // (burn 0 < clear threshold).
    eval.observe(6.0, 0, 1);
    ASSERT_TRUE(eval.firing());
    eval.advance(1000.0);
    EXPECT_FALSE(eval.firing());
    EXPECT_EQ(eval.cleared_count(), 1u);
}

TEST(BurnRate, EventsCarryTheBurnsAtTransition)
{
    BurnRateEvaluator eval(simple_policy());
    eval.observe(1.0, 0, 2);
    // The transition happened on this observation, so the burns read
    // now are the ones it fired at.
    ASSERT_TRUE(eval.firing());
    EXPECT_EQ(eval.fired_count(), 1u);
    EXPECT_NEAR(eval.fast_burn(), 10.0, kTol);
    EXPECT_NEAR(eval.slow_burn(), 10.0, kTol);
    EXPECT_NEAR(eval.peak_burn(), 10.0, kTol);
}

} // namespace
} // namespace helm::telemetry
