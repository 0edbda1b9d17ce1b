/**
 * @file
 * Unit tests for FifoResource and CountdownLatch.
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"

namespace helm::sim {
namespace {

constexpr double kTol = 1e-9;

TEST(FifoResource, ImmediateGrantWhenFree)
{
    Simulator sim;
    FifoResource res(sim);
    Seconds done = -1.0;
    res.occupy(1.5, [&] { done = sim.now(); });
    sim.run();
    // A free resource is taken synchronously: the hold starts at t = 0
    // and no admission event fires.
    EXPECT_NEAR(done, 1.5, kTol);
    EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(FifoResource, QueuedWaiterAdmittedOnRelease)
{
    Simulator sim;
    FifoResource res(sim);
    std::vector<std::pair<int, Seconds>> done;
    res.occupy(1.0, [&] { done.emplace_back(1, sim.now()); });
    res.occupy(2.0, [&] { done.emplace_back(2, sim.now()); });
    sim.run();
    // The waiter is admitted by a zero-delay event at the release
    // (t = 1) and holds until t = 3: two holds plus one admission.
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].first, 1);
    EXPECT_NEAR(done[0].second, 1.0, kTol);
    EXPECT_EQ(done[1].first, 2);
    EXPECT_NEAR(done[1].second, 3.0, kTol);
    EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(FifoResource, FifoOrderAmongWaiters)
{
    Simulator sim;
    FifoResource res(sim);
    std::vector<int> order;
    res.occupy(1.0, [&] { order.push_back(0); });
    for (int i = 1; i <= 3; ++i)
        res.occupy(1.0, [&, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(FifoResource, OccupyDuringAdmissionQueuesBehindTheWaiter)
{
    Simulator sim;
    FifoResource res(sim);
    Seconds b_done = -1.0, c_done = -1.0;
    // A's release hands the resource to B through a zero-delay event;
    // C, occupied from A's own on_done before that event fires, must
    // queue behind B rather than run alongside it.
    res.occupy(1.0, [&] {
        res.occupy(1.0, [&] { c_done = sim.now(); });
    });
    res.occupy(1.0, [&] { b_done = sim.now(); });
    sim.run();
    EXPECT_NEAR(b_done, 2.0, kTol);
    EXPECT_NEAR(c_done, 3.0, kTol);
    EXPECT_NEAR(res.busy_time(), 3.0, kTol);
}

TEST(FifoResource, OccupySerializesOnUnitCapacity)
{
    Simulator sim;
    FifoResource res(sim);
    Seconds first = -1, second = -1;
    res.occupy(2.0, [&] { first = sim.now(); });
    res.occupy(3.0, [&] { second = sim.now(); });
    sim.run();
    EXPECT_NEAR(first, 2.0, kTol);
    EXPECT_NEAR(second, 5.0, kTol);
}

TEST(FifoResource, ZeroDurationOccupy)
{
    Simulator sim;
    FifoResource res(sim);
    bool done = false;
    res.occupy(0.0, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(FifoResource, BusyTimeIntegratesUtilization)
{
    Simulator sim;
    FifoResource res(sim);
    res.occupy(2.0, [] {});
    res.occupy(3.0, [] {});
    sim.run();
    // 5 seconds of busy time on a unit resource.
    EXPECT_NEAR(res.busy_time(), 5.0, kTol);
}

TEST(CountdownLatch, FiresAfterExactCount)
{
    CountdownLatch latch(3);
    int fired = 0;
    latch.on_zero([&] { ++fired; });
    latch.arrive();
    latch.arrive();
    EXPECT_EQ(fired, 0); // one arrival still owed
    latch.arrive();
    EXPECT_EQ(fired, 1);
}

TEST(CountdownLatch, ZeroCountFiresOnCallbackInstall)
{
    CountdownLatch latch(0);
    bool fired = false;
    latch.on_zero([&] { fired = true; });
    EXPECT_TRUE(fired);
}

TEST(CountdownLatch, ArrivalsBeforeCallbackInstall)
{
    CountdownLatch latch(2);
    latch.arrive();
    latch.arrive();
    bool fired = false;
    latch.on_zero([&] { fired = true; });
    EXPECT_TRUE(fired);
}

} // namespace
} // namespace helm::sim
