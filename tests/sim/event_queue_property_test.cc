/**
 * @file
 * Property test pinning the two-tier DES kernel (sim/simulator.h) to a
 * plain reference queue.
 *
 * The reference is a plain binary heap ordered by (when, seq), easy to
 * check by eye and slow.  Randomized
 * schedule/cancel/step programs — actions issued both from outside and
 * from inside firing callbacks — are replayed through both kernels,
 * and every observable must match exactly: the (time, tag) fire trace
 * (which pins same-timestamp FIFO order), every cancel() return value
 * (pending vs already-fired vs already-cancelled vs stale-after-reuse
 * semantics), every pending_events() checkpoint (the accounting
 * guarantee: cancelled-but-unpopped entries are never counted), and the
 * final executed-event count.  Event ids are kernel-internal (the
 * kernel packs slot+generation where the reference counts), so
 * programs refer to events by issue index, never by id value.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace helm::sim {
namespace {

/**
 * The reference kernel: the Simulator API over one binary heap of
 * (when, id) pairs, ids counting up from 1 so they double as the FIFO
 * tiebreak.  Callbacks sit in a vector indexed by id; firing or
 * cancelling an event clears its callback, and its heap entry is
 * skipped when it surfaces.
 */
class ReferenceQueue
{
  public:
    Seconds now() const { return now_; }
    std::uint64_t events_executed() const { return executed_; }
    std::size_t pending_events() const { return pending_; }

    EventId
    schedule(Seconds delay, std::function<void()> fn)
    {
        return schedule_at(now_ + delay, std::move(fn));
    }

    EventId
    schedule_at(Seconds when, std::function<void()> fn)
    {
        const EventId id = callbacks_.size();
        callbacks_.push_back(std::move(fn));
        heap_.emplace(when, id);
        ++pending_;
        return id;
    }

    /** True only for a pending event: fired, cancelled and never-issued
     *  ids have no callback. */
    bool
    cancel(EventId id)
    {
        if (id >= callbacks_.size() || !callbacks_[id])
            return false;
        callbacks_[id] = nullptr;
        --pending_;
        return true;
    }

    bool
    step()
    {
        while (!heap_.empty()) {
            const auto [when, id] = heap_.top();
            heap_.pop();
            if (!callbacks_[id])
                continue; // cancelled
            std::function<void()> fn = std::move(callbacks_[id]);
            callbacks_[id] = nullptr;
            --pending_;
            now_ = when;
            ++executed_;
            fn();
            return true;
        }
        return false;
    }

    void
    run()
    {
        while (step()) {
        }
    }

  private:
    using Entry = std::pair<Seconds, EventId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::vector<std::function<void()>> callbacks_{1}; //!< id 0: invalid
    std::size_t pending_ = 0;
    Seconds now_ = 0.0;
    std::uint64_t executed_ = 0;
};

/** Everything a program observes; compared across kernels. */
struct Observations
{
    std::vector<std::pair<std::uint64_t, Seconds>> fires;
    std::vector<bool> cancel_results;
    /** (pending_events, now) snapshots. */
    std::vector<std::pair<std::size_t, Seconds>> checkpoints;
    std::uint64_t executed = 0;
    Seconds final_now = 0.0;

    bool operator==(const Observations &other) const = default;
};

/**
 * Interpret one random program on @p Kernel.  All randomness flows
 * through one Rng advanced inside the callbacks; because both kernels
 * must fire the same callbacks in the same order, the two replays draw
 * identical random streams — any semantic divergence desynchronizes
 * the traces and fails the comparison loudly.
 */
template <typename Kernel>
Observations
run_program(std::uint64_t seed)
{
    Kernel sim;
    Rng rng(seed);
    Observations obs;
    std::vector<EventId> ids; // issue order; programs index into this
    std::uint64_t next_tag = 0;

    std::function<void(std::uint64_t)> fire;
    const auto random_action = [&] {
        switch (rng.next_below(5)) {
        case 0: { // relative schedule
            const Seconds delay =
                static_cast<double>(rng.next_below(1000)) * 1e-3;
            const std::uint64_t tag = next_tag++;
            ids.push_back(sim.schedule(delay, [&fire, tag] { fire(tag); }));
            break;
        }
        case 1: { // absolute schedule, possibly far past the horizon
            const Seconds when =
                sim.now() +
                static_cast<double>(rng.next_below(100000)) * 1e-4;
            const std::uint64_t tag = next_tag++;
            ids.push_back(
                sim.schedule_at(when, [&fire, tag] { fire(tag); }));
            break;
        }
        case 2: // same-timestamp schedule (FIFO tiebreak coverage)
        {
            const std::uint64_t tag = next_tag++;
            ids.push_back(
                sim.schedule(0.0, [&fire, tag] { fire(tag); }));
            break;
        }
        case 3: // cancel an event picked by issue index (any state)
            if (!ids.empty()) {
                const std::size_t index = static_cast<std::size_t>(
                    rng.next_below(ids.size()));
                obs.cancel_results.push_back(sim.cancel(ids[index]));
            }
            break;
        case 4: // accounting checkpoint
            obs.checkpoints.emplace_back(sim.pending_events(),
                                         sim.now());
            break;
        }
    };
    fire = [&](std::uint64_t tag) {
        obs.fires.emplace_back(tag, sim.now());
        const std::uint64_t actions = rng.next_below(4);
        for (std::uint64_t a = 0; a < actions; ++a)
            random_action();
    };

    // Seed the queue, then alternate bounded stretches of steps with
    // bursts of external actions, and finally drain.
    for (int i = 0; i < 32; ++i)
        random_action();
    for (int phase = 0; phase < 4; ++phase) {
        const std::uint64_t steps = rng.next_below(64);
        for (std::uint64_t s = 0; s < steps && sim.step(); ++s) {
        }
        obs.checkpoints.emplace_back(sim.pending_events(), sim.now());
        for (int i = 0; i < 8; ++i)
            random_action();
    }
    sim.run();

    obs.executed = sim.events_executed();
    obs.final_now = sim.now();
    return obs;
}

TEST(EventQueueProperty, KernelsAgreeOnRandomPrograms)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const Observations reference = run_program<ReferenceQueue>(seed);
        const Observations kernel = run_program<Simulator>(seed);
        ASSERT_TRUE(reference == kernel)
            << "kernels diverged on program seed " << seed << ": "
            << reference.fires.size() << " vs " << kernel.fires.size()
            << " fires, " << reference.executed << " vs "
            << kernel.executed << " executed";
        // The programs must actually exercise the machinery.
        EXPECT_GT(reference.fires.size(), 0u) << "seed " << seed;
    }
}

TEST(EventQueueProperty, FireTimesAreMonotoneAndFifo)
{
    const Observations obs = run_program<Simulator>(7);
    ASSERT_FALSE(obs.fires.empty());
    for (std::size_t i = 1; i < obs.fires.size(); ++i)
        EXPECT_LE(obs.fires[i - 1].second, obs.fires[i].second)
            << "fire " << i << " ran before an earlier timestamp";
}

TEST(EventQueueProperty, HeavyCancellationStaysExact)
{
    // Deterministic torture: schedule a wide far-tier spread, cancel
    // every other event, and require both kernels to agree that the
    // accounting and the survivor trace are exact.
    const auto run = [](auto &&sim) {
        std::vector<EventId> ids;
        std::vector<std::uint64_t> fired;
        for (std::uint64_t i = 0; i < 4096; ++i)
            ids.push_back(sim.schedule(
                static_cast<double>((i * 37) % 1024) + 1.0,
                [&fired, i] { fired.push_back(i); }));
        std::size_t cancelled = 0;
        for (std::size_t i = 0; i < ids.size(); i += 2)
            cancelled += sim.cancel(ids[i]) ? 1 : 0;
        EXPECT_EQ(cancelled, ids.size() / 2);
        EXPECT_EQ(sim.pending_events(), ids.size() - cancelled);
        sim.run();
        EXPECT_EQ(sim.events_executed(), ids.size() - cancelled);
        return fired;
    };
    ReferenceQueue reference;
    Simulator kernel;
    EXPECT_EQ(run(reference), run(kernel));
}

// ---- session timers: the gateway's access pattern, at depth ----------

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** What a session-timer run observes: an order-sensitive FNV-1a hash
 *  over every fire (time, tag) and cancel result, plus the counts. */
struct TimersTrace
{
    std::uint64_t hash = 1469598103934665603ull;
    std::uint64_t deadline_fires = 0;
    std::uint64_t cancels_true = 0;
    std::uint64_t executed = 0;

    void
    mix(std::uint64_t value)
    {
        hash = (hash ^ value) * 1099511628211ull;
    }

    bool operator==(const TimersTrace &other) const = default;
};

/**
 * @p sessions sessions, each one event that reschedules itself after a
 * pseudo-random sub-millisecond delay and cancels + re-arms a deadline
 * timer ~1 ms out (usually cancelled before it fires, as serving
 * timeouts are).  Sessions stop rescheduling past @p horizon, and the
 * queue drains.  The initial burst lands in the far tier, so the run
 * walks the refill and lazy-cancel paths with tens of thousands of
 * events outstanding.
 */
template <typename Kernel>
TimersTrace
run_session_timers(std::size_t sessions, Seconds horizon)
{
    Kernel sim;
    TimersTrace trace;
    std::vector<std::uint64_t> state(sessions);
    std::vector<EventId> deadline(sessions, kInvalidEvent);
    const auto mix_time = [&] {
        std::uint64_t bits;
        const Seconds now = sim.now();
        std::memcpy(&bits, &now, sizeof bits);
        trace.mix(bits);
    };
    std::function<void(std::size_t)> on_fire = [&](std::size_t s) {
        mix_time();
        trace.mix(s * 2);
        const std::uint64_t h = splitmix64(state[s]);
        if (deadline[s] != kInvalidEvent) {
            const bool cancelled = sim.cancel(deadline[s]);
            trace.mix(cancelled ? 1 : 0);
            trace.cancels_true += cancelled ? 1 : 0;
        }
        deadline[s] = sim.schedule(
            1e-3 + 1e-6 * static_cast<double>((h >> 10) & 1023), [&, s] {
                deadline[s] = kInvalidEvent;
                ++trace.deadline_fires;
                mix_time();
                trace.mix(s * 2 + 1);
            });
        if (sim.now() < horizon)
            sim.schedule(1e-6 * static_cast<double>(h & 1023),
                         [&on_fire, s] { on_fire(s); });
    };
    for (std::size_t s = 0; s < sessions; ++s) {
        state[s] = 0xD1B54A32D192ED03ull ^ (s * 0x9E3779B97F4A7C15ull);
        sim.schedule(1e-9 * static_cast<double>(s),
                     [&on_fire, s] { on_fire(s); });
    }
    sim.run();
    trace.executed = sim.events_executed();
    return trace;
}

TEST(EventQueueProperty, SessionTimersMatchAtDepth)
{
    constexpr std::size_t kSessions = 64 * 1024;
    constexpr Seconds kHorizon = 1e-3;
    const TimersTrace reference =
        run_session_timers<ReferenceQueue>(kSessions, kHorizon);
    const TimersTrace kernel =
        run_session_timers<Simulator>(kSessions, kHorizon);
    EXPECT_TRUE(reference == kernel)
        << "session-timer traces diverged: " << reference.executed
        << " vs " << kernel.executed << " events, "
        << reference.deadline_fires << " vs " << kernel.deadline_fires
        << " deadline fires";
    // The program must reach depth and exercise every path: several
    // fires per session, deadlines both cancelled and fired.
    EXPECT_GT(kernel.executed, 3 * kSessions);
    EXPECT_GT(kernel.cancels_true, kSessions);
    EXPECT_GE(kernel.deadline_fires, kSessions);
}

} // namespace
} // namespace helm::sim
