/**
 * @file
 * Invariant (death) tests: the simulator's results are meaningless if
 * its preconditions are violated, so HELM_ASSERT stays active in every
 * build type.  These tests pin that each guard actually fires.
 */
#include <gtest/gtest.h>

#include "core/helm.h"

namespace helm {
namespace {

TEST(Invariants, ChannelRejectsZeroRate)
{
    EXPECT_DEATH(
        {
            sim::Simulator simulator;
            sim::BandwidthChannel channel(simulator, Bandwidth());
        },
        "channel rate must be positive");
}

TEST(Invariants, SimulatorRejectsNegativeDelay)
{
    EXPECT_DEATH(
        {
            sim::Simulator simulator;
            simulator.schedule(-1.0, [] {});
        },
        "cannot schedule events in the past");
}

TEST(Invariants, SimulatorRejectsNullCallback)
{
    EXPECT_DEATH(
        {
            sim::Simulator simulator;
            simulator.schedule(1.0, std::function<void()>());
        },
        "null callback");
}

TEST(Invariants, LatchRejectsOverArrival)
{
    EXPECT_DEATH(
        {
            sim::CountdownLatch latch(1);
            latch.on_zero([] {});
            latch.arrive();
            latch.arrive();
        },
        "past zero");
}

TEST(Invariants, CurveRejectsUnsortedPoints)
{
    EXPECT_DEATH(
        {
            mem::BandwidthCurve curve(
                std::vector<mem::BandwidthCurve::Point>{
                    {4 * kGiB, Bandwidth::gb_per_s(10.0)},
                    {1 * kGiB, Bandwidth::gb_per_s(20.0)},
                });
            (void)curve;
        },
        "strictly increasing");
}

TEST(Invariants, DeviceRejectsBadNumaNode)
{
    EXPECT_DEATH(
        {
            auto device = mem::make_dram();
            (void)device->read_bandwidth(kGiB, 7);
        },
        "bad NUMA node");
}

TEST(Invariants, PcieRejectsUnknownGeneration)
{
    EXPECT_DEATH({ mem::PcieLink link(7, 16); (void)link; },
                 "generation must be 3..6");
}

TEST(Invariants, RngRejectsZeroBound)
{
    EXPECT_DEATH(
        {
            Rng rng(1);
            (void)rng.next_below(0);
        },
        "bound > 0");
}

} // namespace
} // namespace helm
