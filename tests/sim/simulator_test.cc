/**
 * @file
 * Unit tests for the discrete-event kernel (sim/simulator.h).
 */
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace helm::sim {
namespace {

TEST(Simulator, StartsAtZero)
{
    Simulator sim;
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsFireInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(3.0, [&] { order.push_back(3); });
    sim.schedule(1.0, [&] { order.push_back(1); });
    sim.schedule(2.0, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimestampsFireFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.schedule(1.0, [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime)
{
    Simulator sim;
    Seconds observed = -1.0;
    sim.schedule(5.5, [&] { observed = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(observed, 5.5);
}

TEST(Simulator, NestedScheduling)
{
    Simulator sim;
    std::vector<Seconds> times;
    sim.schedule(1.0, [&] {
        times.push_back(sim.now());
        sim.schedule(1.0, [&] { times.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator sim;
    bool fired = false;
    const EventId id = sim.schedule(1.0, [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id)); // second cancel is a no-op
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, CancelOneOfMany)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(1.0, [&] { order.push_back(1); });
    const EventId id = sim.schedule(2.0, [&] { order.push_back(2); });
    sim.schedule(3.0, [&] { order.push_back(3); });
    sim.cancel(id);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, EventsExecutedCounter)
{
    Simulator sim;
    for (int i = 0; i < 5; ++i)
        sim.schedule(static_cast<double>(i), [] {});
    sim.run();
    EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, ZeroDelayEventsRunAtCurrentTime)
{
    Simulator sim;
    Seconds t = -1.0;
    sim.schedule(2.0, [&] {
        sim.schedule(0.0, [&] { t = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(Simulator, StepExecutesExactlyOne)
{
    Simulator sim;
    int count = 0;
    sim.schedule(1.0, [&] { ++count; });
    sim.schedule(2.0, [&] { ++count; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(sim.step());
}

// ---- the accounting guarantee (see the simulator.h file header) ------

TEST(Simulator, PendingNeverCountsCancelledEntries)
{
    // Cancelled-but-unpopped entries must be invisible to
    // pending_events() immediately, not only after their heap entry
    // surfaces or a refill sweeps them.
    Simulator sim;
    std::vector<EventId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(sim.schedule(1.0 + i, [] {}));
    EXPECT_EQ(sim.pending_events(), 5u);
    EXPECT_TRUE(sim.cancel(ids[1]));
    EXPECT_TRUE(sim.cancel(ids[3]));
    EXPECT_EQ(sim.pending_events(), 3u);
    sim.run();
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, PendingExactAcrossTiersAndSteps)
{
    // Wide spread pushes entries into the far tier; the live count
    // must stay exact through cancellations, refills, and pops.
    Simulator sim;
    std::vector<EventId> ids;
    for (std::uint64_t i = 0; i < 200; ++i)
        ids.push_back(sim.schedule(
            static_cast<double>((i * 97) % 100) * 10.0 + 1.0, [] {}));
    std::size_t live = 200;
    for (std::size_t i = 0; i < ids.size(); i += 3) {
        ASSERT_TRUE(sim.cancel(ids[i]));
        --live;
        EXPECT_EQ(sim.pending_events(), live);
    }
    while (sim.step()) {
        --live;
        EXPECT_EQ(sim.pending_events(), live);
    }
    EXPECT_EQ(live, 0u);
}

TEST(Simulator, CancelOwnFiringEventReturnsFalse)
{
    // By the time a callback runs, its event has fired: the handle
    // must read as spent, not cancel anything.
    Simulator sim;
    EventId self = kInvalidEvent;
    bool cancel_result = true;
    self = sim.schedule(1.0, [&] { cancel_result = sim.cancel(self); });
    sim.run();
    EXPECT_FALSE(cancel_result);
    EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, StaleHandleCannotCancelAcrossSlotReuse)
{
    // Cancelling frees the slot; the next schedule may reuse it.  The
    // old handle carries the old generation and must stay inert.
    Simulator sim;
    bool fired = false;
    const EventId old_id = sim.schedule(1.0, [] {});
    ASSERT_TRUE(sim.cancel(old_id));
    const EventId new_id = sim.schedule(2.0, [&] { fired = true; });
    EXPECT_FALSE(sim.cancel(old_id)); // must not kill the new event
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_NE(old_id, new_id);
}

TEST(Simulator, FiredHandleCannotCancelAcrossSlotReuse)
{
    Simulator sim;
    bool fired = false;
    const EventId spent = sim.schedule(1.0, [] {});
    sim.run();
    const EventId fresh = sim.schedule(1.0, [&] { fired = true; });
    EXPECT_FALSE(sim.cancel(spent));
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_NE(spent, fresh);
}

TEST(Simulator, CancelSameTimestampLaterEventFromCallback)
{
    // FIFO at equal timestamps means the first-scheduled event runs
    // first and may still cancel a same-timestamp successor.
    Simulator sim;
    bool victim_fired = false;
    EventId victim = kInvalidEvent;
    sim.schedule(1.0, [&] { EXPECT_TRUE(sim.cancel(victim)); });
    victim = sim.schedule(1.0, [&] { victim_fired = true; });
    sim.run();
    EXPECT_FALSE(victim_fired);
    EXPECT_EQ(sim.events_executed(), 1u);
}

} // namespace
} // namespace helm::sim
