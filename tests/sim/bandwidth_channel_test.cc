/**
 * @file
 * Unit tests for the max-min fair-share bandwidth channel.
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/bandwidth_channel.h"
#include "sim/simulator.h"

namespace helm::sim {
namespace {

constexpr double kTol = 1e-6;

TEST(BandwidthChannel, SingleUncappedFlow)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    Seconds done_at = -1.0;
    ch.start_flow(10 * kGB, Bandwidth(), [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(done_at, 1.0, kTol);
    EXPECT_EQ(ch.bytes_delivered(), 10 * kGB);
    // No flow is left on the link: the next one gets all of it.
    ch.start_flow(10 * kGB, Bandwidth(), [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(done_at, 2.0, kTol);
}

TEST(BandwidthChannel, CapSlowerThanChannel)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    Seconds done_at = -1.0;
    ch.start_flow(10 * kGB, Bandwidth::gb_per_s(2.0),
                  [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(done_at, 5.0, kTol);
}

TEST(BandwidthChannel, CapFasterThanChannelIsIgnored)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    Seconds done_at = -1.0;
    ch.start_flow(10 * kGB, Bandwidth::gb_per_s(100.0),
                  [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(done_at, 1.0, kTol);
}

TEST(BandwidthChannel, TwoEqualFlowsShareEvenly)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    Seconds done_a = -1.0, done_b = -1.0;
    ch.start_flow(10 * kGB, Bandwidth(), [&] { done_a = sim.now(); });
    ch.start_flow(10 * kGB, Bandwidth(), [&] { done_b = sim.now(); });
    sim.run();
    // Each flow gets a 5 GB/s share; 10 GB each => both finish at t=2.
    EXPECT_NEAR(done_a, 2.0, kTol);
    EXPECT_NEAR(done_b, 2.0, kTol);
}

TEST(BandwidthChannel, ShortFlowReleasesBandwidthToLongFlow)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    Seconds done_short = -1.0, done_long = -1.0;
    ch.start_flow(5 * kGB, Bandwidth(), [&] { done_short = sim.now(); });
    ch.start_flow(15 * kGB, Bandwidth(), [&] { done_long = sim.now(); });
    sim.run();
    // Shared 5/5 until the short flow's 5 GB completes at t=1; the long
    // flow then has 10 GB left at full 10 GB/s => t=2.
    EXPECT_NEAR(done_short, 1.0, kTol);
    EXPECT_NEAR(done_long, 2.0, kTol);
}

TEST(BandwidthChannel, WaterFillingWithMixedCaps)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    // Flow A capped at 2 GB/s; flows B and C uncapped: A gets 2, B and C
    // split the remaining 8 evenly (4 each) — max-min fairness.  Sized
    // 10/20/20 GB, all three finish together at 5 s only under exactly
    // those shares.
    Seconds done_a = -1.0, done_b = -1.0, done_c = -1.0;
    ch.start_flow(10 * kGB, Bandwidth::gb_per_s(2.0),
                  [&] { done_a = sim.now(); });
    ch.start_flow(20 * kGB, Bandwidth(), [&] { done_b = sim.now(); });
    ch.start_flow(20 * kGB, Bandwidth(), [&] { done_c = sim.now(); });
    sim.run();
    EXPECT_NEAR(done_a, 5.0, kTol);
    EXPECT_NEAR(done_b, 5.0, kTol);
    EXPECT_NEAR(done_c, 5.0, kTol);
}

TEST(BandwidthChannel, RatesNeverExceedChannel)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    // Caps 1..7 GB/s on a 10 GB/s link: the 1 GB/s flow keeps its cap
    // and the other six share the remaining 9 (1.5 each), so 1 GB each
    // lands at 2/3 s; the capped flow then finishes alone, at its cap.
    std::vector<Seconds> done(7, -1.0);
    for (int i = 0; i < 7; ++i) {
        ch.start_flow(kGB, Bandwidth::gb_per_s(1.0 + i),
                      [&, i] { done[i] = sim.now(); });
    }
    sim.run();
    EXPECT_NEAR(done[0], 1.0, kTol);
    double total = 1.0; // the capped flow's rate while all seven ran
    for (int i = 1; i < 7; ++i) {
        EXPECT_NEAR(done[i], 2.0 / 3.0, kTol) << "flow " << i;
        total += 1.0 / done[i]; // 1 GB over its finish time, in GB/s
    }
    EXPECT_LE(total, 10.0 + 1e-6);
}

TEST(BandwidthChannel, ZeroByteFlowCompletesImmediately)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    bool done = false;
    const FlowId id = ch.start_flow(0, Bandwidth(), [&] { done = true; });
    EXPECT_TRUE(done); // synchronous for empty payloads
    EXPECT_EQ(id, kInvalidFlow);
}

TEST(BandwidthChannel, ChainedFlowsFromCompletionCallback)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(1.0));
    Seconds second_done = -1.0;
    ch.start_flow(1 * kGB, Bandwidth(), [&] {
        ch.start_flow(1 * kGB, Bandwidth(),
                      [&] { second_done = sim.now(); });
    });
    sim.run();
    EXPECT_NEAR(second_done, 2.0, kTol);
}

TEST(BandwidthChannel, LateArrivalSlowsExistingFlow)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    Seconds done_a = -1.0;
    ch.start_flow(10 * kGB, Bandwidth(), [&] { done_a = sim.now(); });
    sim.schedule(0.5, [&] {
        ch.start_flow(100 * kGB, Bandwidth(), [] {});
    });
    sim.run();
    // Flow A: 5 GB in the first 0.5 s, then 5 GB/s => done at 1.5 s.
    EXPECT_NEAR(done_a, 1.5, kTol);
}

TEST(BandwidthChannel, SubByteRemainderDoesNotLivelock)
{
    // Regression: remainders below one byte used to stall virtual time.
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::bytes_per_s(3.0000000001e9));
    int completed = 0;
    for (int i = 0; i < 50; ++i) {
        ch.start_flow(333333333 + static_cast<Bytes>(i * 7),
                      Bandwidth::bytes_per_s(1.7e9 + i * 1.3e5),
                      [&] { ++completed; });
    }
    sim.run();
    EXPECT_EQ(completed, 50);
    EXPECT_LT(sim.events_executed(), 100000u);
}

TEST(BandwidthChannel, FlowLateInALongRunCompletes)
{
    // Regression: from t = 2^19 s a double clock steps by ~1.2e-10 s.
    // This flow's round-off remainder (over half a byte at 25 GB/s)
    // needs less than half a step, so its completion event fired
    // without advancing time and re-armed forever.
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::bytes_per_s(25e9));
    constexpr Seconds kStart = 524288.0; // 2^19 s
    Seconds done_at = -1.0;
    sim.schedule_at(kStart, [&] {
        ch.start_flow(100 * kMB, Bandwidth(), [&] { done_at = sim.now(); });
    });
    for (int steps = 0; steps < 1000 && sim.step(); ++steps) {
    }
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_NEAR(done_at, kStart + 0.004, 1e-9);
    EXPECT_EQ(ch.bytes_delivered(), 100 * kMB);
}

TEST(BandwidthChannel, ManySequentialFlowsAccumulateBytes)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    Bytes expected = 0;
    std::function<void(int)> launch = [&](int remaining) {
        if (remaining == 0)
            return;
        const Bytes size = 100 * kMiB + static_cast<Bytes>(remaining);
        expected += size;
        ch.start_flow(size, Bandwidth(),
                      [&, remaining] { launch(remaining - 1); });
    };
    launch(20);
    sim.run();
    EXPECT_EQ(ch.bytes_delivered(), expected);
}

// ---- Concurrency properties (16+ heterogeneous capped flows) ----------

TEST(BandwidthChannelProperty, SumOfCapsBelowRateRunsEveryFlowAtItsCap)
{
    // 16 flows whose caps sum to 13.6 GB/s on a 100 GB/s link: no flow
    // is ever throttled by the share, so each must finish in exactly
    // bytes / cap — the "no cap exceeded" bound is tight from both
    // sides.
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(100.0));
    std::vector<Seconds> done(16, -1.0);
    for (int i = 0; i < 16; ++i) {
        const double cap_gb = 0.1 * (i + 1); // 0.1 .. 1.6 GB/s
        const Bytes bytes = (i + 1) * kGB;
        ch.start_flow(bytes, Bandwidth::gb_per_s(cap_gb),
                      [&, i] { done[i] = sim.now(); });
    }
    sim.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_NEAR(done[i], 10.0, 1e-6) << "flow " << i; // i+1 / 0.1(i+1)
}

TEST(BandwidthChannelProperty, SixteenUncappedEqualFlowsFinishTogether)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(32.0));
    std::vector<Seconds> done(16, -1.0);
    for (int i = 0; i < 16; ++i)
        ch.start_flow(4 * kGB, Bandwidth(),
                      [&, i] { done[i] = sim.now(); });
    sim.run();
    // Equal shares of 2 GB/s each; 4 GB => everyone at t = 2.
    for (int i = 0; i < 16; ++i)
        EXPECT_NEAR(done[i], 2.0, 1e-6);
    EXPECT_EQ(ch.bytes_delivered(), 64 * kGB);
}

TEST(BandwidthChannelProperty, WaterFillingGivesSlackToUncappedFlows)
{
    // Max-min fairness: 8 flows capped below the fair share keep their
    // cap; the other 8 uncapped flows water-fill the remainder evenly.
    // Rate 32, caps 1 => uncapped share = (32 - 8) / 8 = 3 GB/s.
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(32.0));
    std::vector<Seconds> done(16, -1.0);
    for (int i = 0; i < 8; ++i)
        ch.start_flow(6 * kGB, Bandwidth::gb_per_s(1.0),
                      [&, i] { done[i] = sim.now(); });
    for (int i = 8; i < 16; ++i)
        ch.start_flow(6 * kGB, Bandwidth(),
                      [&, i] { done[i] = sim.now(); });
    sim.run();
    for (int i = 8; i < 16; ++i)
        EXPECT_NEAR(done[i], 2.0, 1e-6); // 6 GB at 3 GB/s
    // Once the uncapped flows drain, the capped ones still cannot
    // exceed their cap: 6 GB at 1 GB/s regardless of the free link.
    for (int i = 0; i < 8; ++i)
        EXPECT_NEAR(done[i], 6.0, 1e-6);
}

TEST(BandwidthChannelProperty, AggregateNeverExceedsChannelRate)
{
    // 24 heterogeneous flows demanding ~3x the link: the channel can
    // deliver at most rate x makespan bytes, and every flow still
    // respects its own cap (finish >= bytes / cap).
    Simulator sim;
    const double rate_gb = 20.0;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(rate_gb));
    std::vector<Seconds> done(24, -1.0);
    std::vector<Bytes> sizes(24);
    std::vector<double> caps(24);
    Bytes total = 0;
    for (int i = 0; i < 24; ++i) {
        sizes[i] = (1 + (i * 7) % 5) * kGB;
        caps[i] = 0.5 + 0.25 * (i % 8); // 0.5 .. 2.25 GB/s
        total += sizes[i];
        ch.start_flow(sizes[i], Bandwidth::gb_per_s(caps[i]),
                      [&, i] { done[i] = sim.now(); });
    }
    sim.run();
    Seconds makespan = 0.0;
    for (int i = 0; i < 24; ++i) {
        ASSERT_GE(done[i], 0.0);
        const Seconds lower = static_cast<double>(sizes[i]) /
                              (caps[i] * 1e9); // cap respected
        EXPECT_GE(done[i], lower - 1e-6) << "flow " << i;
        makespan = std::max(makespan, done[i]);
    }
    EXPECT_GE(makespan,
              static_cast<double>(total) / (rate_gb * 1e9) - 1e-6);
    EXPECT_EQ(ch.bytes_delivered(), total);
}

TEST(BandwidthChannelProperty, StaggeredArrivalsPreserveMaxMinShares)
{
    // A flow arriving mid-run re-waters the level: the early flow's
    // finish reflects a full-rate phase then a shared phase.
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    Seconds done_early = -1.0, done_late = -1.0;
    ch.start_flow(15 * kGB, Bandwidth(), [&] { done_early = sim.now(); });
    sim.schedule(1.0, [&] {
        ch.start_flow(5 * kGB, Bandwidth(),
                      [&] { done_late = sim.now(); });
    });
    sim.run();
    // t<1: early alone at 10 GB/s (10 GB moved).  t>=1: 5 GB/s each;
    // early's last 5 GB takes 1 s, late's 5 GB takes 1 s — both at 2.
    EXPECT_NEAR(done_early, 2.0, 1e-6);
    EXPECT_NEAR(done_late, 2.0, 1e-6);
}

TEST(BandwidthChannelFlowTable, SimultaneousFinishesFireInStartOrder)
{
    // Flows that finish at the same instant complete in the order they
    // started — the flow table keeps start order through every reap.
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    std::vector<char> order;
    ch.start_flow(2 * kGB, Bandwidth(), [&] { order.push_back('A'); });
    ch.start_flow(2 * kGB, Bandwidth(), [&] { order.push_back('B'); });
    ch.start_flow(2 * kGB, Bandwidth(), [&] { order.push_back('C'); });
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
    EXPECT_NEAR(sim.now(), 0.6, kTol);
}

TEST(BandwidthChannelFlowTable, FinishedMiddleFlowRefillsTheRest)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(9.0));
    std::vector<std::pair<char, Seconds>> done;
    ch.start_flow(9 * kGB, Bandwidth(),
                  [&] { done.emplace_back('A', sim.now()); });
    ch.start_flow(3 * kGB / 2, Bandwidth(), [&] {
        // 1.5 GB at a 3 GB/s share: B leaves at 0.5 s, and its
        // completion runs after the survivors were re-filled.
        done.emplace_back('B', sim.now());
        EXPECT_EQ(done.size(), 1u); // A and C are still on the link
    });
    ch.start_flow(9 * kGB, Bandwidth(),
                  [&] { done.emplace_back('C', sim.now()); });
    sim.run();
    // 7.5 GB left each at 4.5 GB/s: both land at 0.5 + 5/3 s, A first.
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0].first, 'B');
    EXPECT_NEAR(done[0].second, 0.5, 1e-6);
    EXPECT_EQ(done[1].first, 'A');
    EXPECT_EQ(done[2].first, 'C');
    // The refilled shares, read off the finishes: 7.5 GB after B left.
    EXPECT_NEAR(7.5 / (done[1].second - done[0].second), 4.5, 1e-6);
    EXPECT_NEAR(7.5 / (done[2].second - done[0].second), 4.5, 1e-6);
    EXPECT_NEAR(done[1].second, 0.5 + 7.5 / 4.5, 1e-6);
    EXPECT_NEAR(done[2].second, 0.5 + 7.5 / 4.5, 1e-6);
    EXPECT_EQ(ch.bytes_delivered(), 18 * kGB + 3 * kGB / 2);
}

TEST(BandwidthChannelFlowTable, FinishedOrUnknownFlowHasZeroRate)
{
    Simulator sim;
    BandwidthChannel ch(sim, Bandwidth::gb_per_s(10.0));
    // A lone flow runs at the full link rate: 1 GB in 0.1 s.
    Seconds done_at = -1.0;
    const FlowId id =
        ch.start_flow(kGB, Bandwidth(), [&] { done_at = sim.now(); });
    sim.run();
    EXPECT_NEAR(done_at, 0.1, kTol);
    // Once finished it holds no share: the next flow, with the next
    // id, again gets the whole link.
    const FlowId next =
        ch.start_flow(kGB, Bandwidth(), [&] { done_at = sim.now(); });
    EXPECT_EQ(next, id + 1);
    EXPECT_NE(next, kInvalidFlow);
    sim.run();
    EXPECT_NEAR(done_at, 0.2, kTol);
}

} // namespace
} // namespace helm::sim
