/**
 * @file
 * Differential test pinning the bandwidth channel (sim/bandwidth_channel.h)
 * to a sort-per-pass reference.
 *
 * The channel keeps its flows in fill order and grants rates, notes
 * throttling and picks the next completion in one pass.  The reference
 * below keeps flows in start order and, on every flow event, sorts
 * pointers to them by (limit, start order), water-fills, checks for
 * throttling and scans for the next completion in separate passes: the
 * plain statement of max-min sharing, slow and easy to check by eye.
 * Seeded random programs run through both, on separate kernels, and
 * every observable must be bit-equal (`==`, never NEAR): the completion
 * callbacks' order and times, the flow ids, bytes_delivered(),
 * throttle_events() and the kernel's event count.  All randomness flows
 * through one Rng advanced inside the callbacks, so any divergence
 * desynchronises the two replays and fails loudly.
 *
 * The reference also fills and re-arms eagerly on every start, where
 * the channel defers its fill to the kernel's settle.  The fabric
 * programs pin that deferral: two channels on one kernel (a link and a
 * shared port, as a cluster fabric has), transfers that start on both
 * in either order and join through a CountdownLatch, and FifoResource
 * holds and plain schedule()s interleaved between the starts, so the
 * settles must reproduce the eager channels' event order exactly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/bandwidth_channel.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace helm::sim {
namespace {

/** The BandwidthChannel API with the sort-per-pass water-fill. */
class ReferenceChannel
{
  public:
    ReferenceChannel(Simulator &simulator, Bandwidth rate)
        : simulator_(simulator), rate_(rate)
    {
        last_update_ = simulator_.now();
    }

    ~ReferenceChannel()
    {
        if (pending_event_ != kInvalidEvent)
            simulator_.cancel(pending_event_);
    }

    FlowId
    start_flow(Bytes bytes, Bandwidth cap, std::function<void()> on_complete)
    {
        if (bytes == 0) {
            on_complete();
            return kInvalidFlow;
        }
        advance_to_now();
        Flow &flow = flows_.emplace_back();
        flow.id = next_flow_id_++;
        flow.total_bytes = bytes;
        flow.remaining_bytes = static_cast<double>(bytes);
        flow.cap_bps = cap.is_zero() ? 0.0 : cap.raw();
        flow.on_complete = std::move(on_complete);
        const FlowId id = flow.id;
        recompute_and_reschedule();
        return id;
    }

    Bytes bytes_delivered() const { return bytes_delivered_; }
    std::uint64_t throttle_events() const { return throttle_events_; }

  private:
    struct Flow
    {
        FlowId id = kInvalidFlow;
        Bytes total_bytes = 0;
        double remaining_bytes = 0.0;
        double cap_bps = 0.0; //!< 0 means uncapped
        double rate_bps = 0.0;
        std::function<void()> on_complete;
    };

    void
    advance_to_now()
    {
        const Seconds now = simulator_.now();
        const Seconds elapsed = now - last_update_;
        last_update_ = now;
        if (elapsed <= 0.0)
            return;
        for (Flow &flow : flows_) {
            flow.remaining_bytes -= flow.rate_bps * elapsed;
            if (flow.remaining_bytes < 0.0)
                flow.remaining_bytes = 0.0;
        }
    }

    void
    water_fill()
    {
        // Cap ascending, uncapped last; equal caps in flows_ (= start)
        // order, which the addresses follow.
        std::vector<Flow *> order;
        for (Flow &flow : flows_)
            order.push_back(&flow);
        const auto key = [](const Flow *flow) {
            return flow->cap_bps > 0.0
                       ? flow->cap_bps
                       : std::numeric_limits<double>::infinity();
        };
        std::sort(order.begin(), order.end(),
                  [&](const Flow *a, const Flow *b) {
                      return key(a) < key(b) ||
                             (key(a) == key(b) && a < b);
                  });
        double remaining_rate = rate_.raw();
        std::size_t remaining_flows = order.size();
        for (Flow *flow : order) {
            const double share =
                remaining_rate / static_cast<double>(remaining_flows);
            flow->rate_bps = std::min(key(flow), share);
            remaining_rate -= flow->rate_bps;
            --remaining_flows;
        }
        if (order.size() > 1) {
            for (const Flow *flow : order) {
                const double solo = std::min(key(flow), rate_.raw());
                if (flow->rate_bps < solo * (1.0 - 1e-9)) {
                    ++throttle_events_;
                    break;
                }
            }
        }
    }

    void
    recompute_and_reschedule()
    {
        if (pending_event_ != kInvalidEvent) {
            simulator_.cancel(pending_event_);
            pending_event_ = kInvalidEvent;
        }
        reap_finished();
        if (flows_.empty())
            return;
        water_fill();
        Seconds next_completion = std::numeric_limits<Seconds>::infinity();
        for (const Flow &flow : flows_) {
            if (flow.rate_bps <= 0.0)
                continue;
            const Seconds delay = flow.remaining_bytes / flow.rate_bps;
            if (delay < next_completion) {
                next_completion = delay;
                pending_flow_ = flow.id;
            }
        }
        ASSERT_TRUE(std::isfinite(next_completion));
        armed_at_ = simulator_.now();
        pending_event_ = simulator_.schedule(next_completion, [this] {
            pending_event_ = kInvalidEvent;
            advance_to_now();
            if (simulator_.now() == armed_at_) {
                for (Flow &flow : flows_) {
                    if (flow.id == pending_flow_)
                        flow.remaining_bytes = 0.0;
                }
            }
            recompute_and_reschedule();
        });
    }

    void
    reap_finished()
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            Flow &flow = flows_[i];
            if (flow.remaining_bytes <= FlowTable::kByteEpsilon) {
                bytes_delivered_ += flow.total_bytes;
                simulator_.schedule(0.0, std::move(flow.on_complete));
            } else {
                if (kept != i)
                    flows_[kept] = std::move(flow);
                ++kept;
            }
        }
        flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept),
                     flows_.end());
    }

    Simulator &simulator_;
    Bandwidth rate_;
    std::vector<Flow> flows_; //!< start order
    FlowId next_flow_id_ = 1;
    Seconds last_update_ = 0.0;
    EventId pending_event_ = kInvalidEvent;
    FlowId pending_flow_ = kInvalidFlow;
    Seconds armed_at_ = 0.0;
    Bytes bytes_delivered_ = 0;
    std::uint64_t throttle_events_ = 0;
};

/** Everything a program observes; compared across channels. */
struct Observations
{
    /** (tag, now) per completion callback, in callback order. */
    std::vector<std::pair<std::uint64_t, Seconds>> completions;
    std::vector<FlowId> ids; //!< start_flow results, in issue order
    std::uint64_t flows_started = 0;
    Bytes bytes_delivered = 0;
    std::uint64_t throttle_events = 0;
    std::uint64_t events = 0;
    Seconds final_now = 0.0;
    bool drained = false; //!< the kernel ran out of events

    bool operator==(const Observations &other) const = default;
};

/** Which per-flow caps a program draws from. */
enum class Caps
{
    kMixed,  //!< three caps (one above the link) and uncapped
    kEqual,  //!< one cap for every flow
    kAbsent, //!< every flow uncapped
};

constexpr Seconds kLongRun = 524288.0; //!< 2^19 s: 1.2e-10 s clock steps

/**
 * One random program on @p Channel: a burst of flows at @p start,
 * eight more bursts at staggered times, and completion callbacks that
 * start up to two flows each, until 400 flows have been issued.  Sizes
 * mix a few bytes (remainders at the epsilon), exact repeats (equal
 * finishes and next-completion ties) and twins one byte apart (finishes
 * within half a byte of each other).
 */
template <typename Channel>
Observations
run_program(std::uint64_t seed, Caps caps, Seconds start)
{
    Simulator sim;
    Rng rng(seed);
    const double rates[] = {25e9, 12e9, 3.0000000001e9};
    const double link = rates[rng.next_below(3)];
    Channel ch(sim, Bandwidth::bytes_per_s(link));
    std::vector<Bandwidth> palette;
    switch (caps) {
    case Caps::kMixed:
        // link/2 against an uncapped flow alone ties their shares.
        palette = {Bandwidth::bytes_per_s(link * 0.24),
                   Bandwidth::bytes_per_s(link * 0.5), Bandwidth(),
                   Bandwidth::bytes_per_s(link * 1.5)};
        break;
    case Caps::kEqual:
        palette = {Bandwidth::bytes_per_s(link * 0.8)};
        break;
    case Caps::kAbsent:
        palette = {Bandwidth()};
        break;
    }

    Observations obs;
    int budget = 400;
    const auto draw_bytes = [&]() -> Bytes {
        switch (rng.next_below(10)) {
        case 0:
            return rng.next_below(4); // 0..3 bytes; 0 completes inline
        case 1:
        case 2:
            return kMiB << rng.next_below(3); // exact repeats
        default:
            return 1 + rng.next_below(64 * kMiB);
        }
    };
    std::function<void()> start_one;
    const auto issue = [&](Bytes bytes, Bandwidth cap) {
        const std::uint64_t tag = obs.flows_started++;
        --budget;
        obs.ids.push_back(ch.start_flow(bytes, cap, [&, tag] {
            obs.completions.emplace_back(tag, sim.now());
            const std::uint64_t chained = rng.next_below(4) / 2 +
                                          rng.next_below(4) / 3;
            for (std::uint64_t c = 0; c < chained; ++c)
                start_one();
        }));
    };
    start_one = [&] {
        if (budget <= 0)
            return;
        const Bytes bytes = draw_bytes();
        const Bandwidth cap = palette[rng.next_below(palette.size())];
        issue(bytes, cap);
        if (budget > 0 && rng.next_below(8) == 0)
            issue(bytes + 1, cap); // a twin, one byte longer
    };
    const auto burst = [&](std::uint64_t flows) {
        for (std::uint64_t i = 0; i < flows; ++i)
            start_one();
    };

    sim.schedule_at(start, [&] { burst(1 + rng.next_below(64)); });
    for (int b = 0; b < 8; ++b) {
        const Seconds at =
            start + static_cast<double>(rng.next_below(2000)) * 1e-4;
        const std::uint64_t flows = 1 + rng.next_below(16);
        sim.schedule_at(at, [&burst, flows] { burst(flows); });
    }
    // Bounded, so that a clock that stops advancing fails the test
    // rather than hanging it.
    for (int steps = 0; steps < 1000000 && sim.step(); ++steps) {
    }
    obs.drained = sim.pending_events() == 0;
    obs.bytes_delivered = ch.bytes_delivered();
    obs.throttle_events = ch.throttle_events();
    obs.events = sim.events_executed();
    obs.final_now = sim.now();
    return obs;
}

void
expect_agree(std::uint64_t seed, Caps caps, Seconds start)
{
    const Observations reference =
        run_program<ReferenceChannel>(seed, caps, start);
    const Observations channel =
        run_program<BandwidthChannel>(seed, caps, start);
    ASSERT_TRUE(reference == channel)
        << "channels diverged on seed " << seed << " caps "
        << static_cast<int>(caps) << " start " << start << ": "
        << reference.completions.size() << " vs "
        << channel.completions.size() << " completions, "
        << reference.throttle_events << " vs " << channel.throttle_events
        << " throttle events";
    // Every issued flow completes, and the program did real work.
    EXPECT_TRUE(channel.drained) << "seed " << seed;
    EXPECT_EQ(channel.completions.size(), channel.flows_started)
        << "seed " << seed;
    EXPECT_GT(channel.flows_started, 50u) << "seed " << seed;
}

TEST(BandwidthChannelOracle, MixedCapsAgreeBitForBit)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        expect_agree(seed, Caps::kMixed, 0.0);
}

TEST(BandwidthChannelOracle, EqualCapsAgreeBitForBit)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed)
        expect_agree(seed, Caps::kEqual, 0.0);
}

TEST(BandwidthChannelOracle, UncappedFlowsAgreeBitForBit)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed)
        expect_agree(seed, Caps::kAbsent, 0.0);
}

TEST(BandwidthChannelOracle, LongRunAgreesBitForBit)
{
    // Past 2^19 s many remainders' delays fall below the clock step,
    // so completions take the late-run delivery path.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        expect_agree(seed, Caps::kMixed, kLongRun);
        expect_agree(seed, Caps::kAbsent, kLongRun);
    }
}

TEST(BandwidthChannelOracle, MixedProgramsThrottle)
{
    // The comparison above means something only if contention happens.
    const Observations obs =
        run_program<BandwidthChannel>(3, Caps::kMixed, 0.0);
    EXPECT_GT(obs.throttle_events, 0u);
}

/** Everything a fabric program observes; compared across channels. */
struct FabricObservations
{
    /** (transfer, channel: 0 link / 1 port, now) per flow completion. */
    std::vector<std::tuple<std::uint64_t, int, Seconds>> arrivals;
    /** (transfer, now) per latch join, in join order. */
    std::vector<std::pair<std::uint64_t, Seconds>> joins;
    /** (mark, now) per GPU hold and plain event, in firing order. */
    std::vector<std::pair<std::uint64_t, Seconds>> marks;
    /** pending_events() read inside the callback right after a burst. */
    std::vector<std::size_t> pending;
    std::vector<FlowId> ids; //!< start_flow results, in issue order
    std::uint64_t transfers = 0;
    std::uint64_t marks_issued = 0;
    Bytes link_bytes = 0;
    Bytes port_bytes = 0;
    std::uint64_t link_throttle_events = 0;
    std::uint64_t port_throttle_events = 0;
    std::uint64_t events = 0;
    Seconds final_now = 0.0;
    bool drained = false;

    bool operator==(const FabricObservations &other) const = default;
};

/**
 * One random fabric program on @p Channel: a link and a shared port
 * (often at the same rate, so their completions tie and only the event
 * order separates them) and a FIFO GPU on one kernel.  A transfer puts
 * its bytes on both channels, in a random order, or on the link alone,
 * and joins through a CountdownLatch.  Between starts a burst
 * interleaves GPU holds, zero-delay events and latency-delayed events
 * that start a transfer (the storage path); a join starts up to two
 * more transfers and sometimes a GPU hold, until 300 transfers.
 */
template <typename Channel>
FabricObservations
run_fabric_program(std::uint64_t seed, Seconds start)
{
    Simulator sim;
    Rng rng(seed);
    const double link_rate = rng.next_below(2) == 0 ? 25e9 : 12e9;
    const double port_scale[] = {1.0, 1.0, 1.5, 0.75};
    const double port_rate = link_rate * port_scale[rng.next_below(4)];
    Channel link(sim, Bandwidth::bytes_per_s(link_rate));
    Channel port(sim, Bandwidth::bytes_per_s(port_rate));
    FifoResource gpu(sim);
    const Bandwidth caps[] = {Bandwidth::bytes_per_s(link_rate * 0.24),
                              Bandwidth::bytes_per_s(link_rate * 0.5),
                              Bandwidth()};

    FabricObservations obs;
    int budget = 300;
    const auto draw_bytes = [&]() -> Bytes {
        switch (rng.next_below(8)) {
        case 0:
            return rng.next_below(3); // 0..2 bytes; 0 completes inline
        case 1:
        case 2:
        case 3:
            return kMiB << rng.next_below(3); // exact repeats: ties
        default:
            return 1 + rng.next_below(32 * kMiB);
        }
    };
    const auto draw_time = [&] {
        return static_cast<double>(1 + rng.next_below(400)) * 1e-5;
    };
    const auto mark = [&] {
        return [&, m = obs.marks_issued++] {
            obs.marks.emplace_back(m, sim.now());
        };
    };
    std::function<void()> transfer;
    const auto interleave = [&] {
        switch (rng.next_below(6)) {
        case 0:
            gpu.occupy(draw_time(), mark());
            break;
        case 1:
            sim.schedule(0.0, mark());
            break;
        case 2:
            sim.schedule(draw_time(), [&, m = mark()] {
                m();
                transfer();
            });
            break;
        default:
            break;
        }
    };
    const auto burst = [&](std::uint64_t transfers) {
        for (std::uint64_t i = 0; i < transfers; ++i) {
            transfer();
            interleave();
        }
        obs.pending.push_back(sim.pending_events());
    };
    transfer = [&] {
        if (budget <= 0)
            return;
        --budget;
        const std::uint64_t tag = obs.transfers++;
        const Bytes bytes = draw_bytes();
        const Bandwidth cap = caps[rng.next_below(std::size(caps))];
        const std::uint64_t shape = rng.next_below(5);
        auto latch = std::make_shared<CountdownLatch>(shape == 0 ? 1 : 2);
        latch->on_zero([&, tag] {
            obs.joins.emplace_back(tag, sim.now());
            if (rng.next_below(3) == 0)
                gpu.occupy(draw_time(), mark());
            burst(rng.next_below(4) / 2 + rng.next_below(4) / 3);
        });
        const auto on = [&, tag, latch](int channel) {
            return [&, tag, latch, channel] {
                obs.arrivals.emplace_back(tag, channel, sim.now());
                latch->arrive();
            };
        };
        if (shape == 0) {
            obs.ids.push_back(link.start_flow(bytes, cap, on(0)));
        } else if (shape % 2 == 1) {
            obs.ids.push_back(link.start_flow(bytes, cap, on(0)));
            obs.ids.push_back(port.start_flow(bytes, cap, on(1)));
        } else {
            obs.ids.push_back(port.start_flow(bytes, cap, on(1)));
            obs.ids.push_back(link.start_flow(bytes, cap, on(0)));
        }
    };

    sim.schedule_at(start, [&] { burst(1 + rng.next_below(48)); });
    for (int b = 0; b < 6; ++b) {
        const Seconds at =
            start + static_cast<double>(rng.next_below(1000)) * 1e-4;
        const std::uint64_t transfers = 1 + rng.next_below(12);
        sim.schedule_at(at, [&burst, transfers] { burst(transfers); });
    }
    for (int steps = 0; steps < 1000000 && sim.step(); ++steps) {
    }
    obs.drained = sim.pending_events() == 0;
    obs.link_bytes = link.bytes_delivered();
    obs.port_bytes = port.bytes_delivered();
    obs.link_throttle_events = link.throttle_events();
    obs.port_throttle_events = port.throttle_events();
    obs.events = sim.events_executed();
    obs.final_now = sim.now();
    return obs;
}

void
expect_fabric_agrees(std::uint64_t seed, Seconds start)
{
    const FabricObservations reference =
        run_fabric_program<ReferenceChannel>(seed, start);
    const FabricObservations channel =
        run_fabric_program<BandwidthChannel>(seed, start);
    ASSERT_TRUE(reference == channel)
        << "fabrics diverged on seed " << seed << " start " << start
        << ": " << reference.arrivals.size() << " vs "
        << channel.arrivals.size() << " arrivals, "
        << reference.link_throttle_events << "/"
        << reference.port_throttle_events << " vs "
        << channel.link_throttle_events << "/"
        << channel.port_throttle_events << " throttle events";
    // Every transfer joins, and the program did real work.
    EXPECT_TRUE(channel.drained) << "seed " << seed;
    EXPECT_EQ(channel.joins.size(), channel.transfers) << "seed " << seed;
    EXPECT_GT(channel.transfers, 50u) << "seed " << seed;
}

TEST(BandwidthChannelOracle, FabricProgramsAgreeBitForBit)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        expect_fabric_agrees(seed, 0.0);
}

TEST(BandwidthChannelOracle, LongRunFabricProgramsAgreeBitForBit)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        expect_fabric_agrees(seed, kLongRun);
}

TEST(BandwidthChannelOracle, FabricProgramsContendAndTie)
{
    // The comparison above means something only if both channels
    // throttle and the link's and port's completions coincide.
    const FabricObservations obs =
        run_fabric_program<BandwidthChannel>(2, 0.0);
    EXPECT_GT(obs.link_throttle_events, 0u);
    EXPECT_GT(obs.port_throttle_events, 0u);
    std::size_t ties = 0;
    for (std::size_t i = 1; i < obs.arrivals.size(); ++i) {
        const auto &[tag_a, channel_a, at_a] = obs.arrivals[i - 1];
        const auto &[tag_b, channel_b, at_b] = obs.arrivals[i];
        if (tag_a == tag_b && channel_a != channel_b && at_a == at_b)
            ++ties;
    }
    EXPECT_GT(ties, 10u);
}

/** A later, lower-capped flow sits before an earlier uncapped one in
 *  fill order, and both have the same time left.  The completion event
 *  names the earlier one, so when the late-run delivery completes it
 *  alone, it completes first.  Returns the completion order. */
template <typename Channel>
std::vector<int>
tie_across_limits(Bytes bytes)
{
    Simulator sim;
    Channel ch(sim, Bandwidth::bytes_per_s(25e9));
    std::vector<int> order;
    sim.schedule_at(kLongRun, [&] {
        ch.start_flow(bytes, Bandwidth(), [&] { order.push_back(1); });
        ch.start_flow(bytes, Bandwidth::bytes_per_s(12.5e9),
                      [&] { order.push_back(2); });
    });
    for (int steps = 0; steps < 1000 && sim.step(); ++steps) {
    }
    EXPECT_EQ(sim.pending_events(), 0u);
    return order;
}

TEST(BandwidthChannelOracle, TieAcrossLimitsGoesToTheEarliestFlow)
{
    // Some of these sizes leave round-off remainders over half a byte
    // whose delay is below the clock step, so the late-run delivery
    // picks one flow; the rest reap both flows at one instant.
    for (Bytes bytes = 100 * kMB; bytes < 100 * kMB + 64; ++bytes) {
        const std::vector<int> order =
            tie_across_limits<BandwidthChannel>(bytes);
        EXPECT_EQ(order, tie_across_limits<ReferenceChannel>(bytes))
            << bytes << " bytes";
        EXPECT_EQ(order, (std::vector<int>{1, 2})) << bytes << " bytes";
    }
}

} // namespace
} // namespace helm::sim
