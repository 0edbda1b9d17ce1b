/**
 * @file
 * CI gate for the DES core rewrite: emits a helm-bench-core-v1 JSON
 * document (default BENCH_core.json) that tools/check_bench.py
 * validates.
 *
 * The `queue` section runs the session-timer workload (every fired
 * event reschedules itself and cancels/re-arms a deadline timer, the
 * access pattern the serving gateway generates) at 64Ki outstanding
 * events through both the legacy priority_queue + callback-map kernel
 * (sim/legacy_simulator.h) and the rewritten two-tier slab kernel
 * (sim/simulator.h).  It reports events/sec for both, the speedup, and
 * `identical` — an order-sensitive hash of every fire (time + event
 * tag + cancel results) that proves the rewrite preserves the (when,
 * seq) total order bit for bit.  CI gates speedup >= 3 and the
 * identity.
 */
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/helm.h"
#include "sim/legacy_simulator.h"

namespace {

using namespace helm;

// ---- queue section: the session-timer workload -----------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

struct TimersResult
{
    std::uint64_t events = 0;
    double seconds = 0.0;
    std::uint64_t trace_hash = 0;
    std::uint64_t deadline_fires = 0;

    double
    events_per_second() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds
                             : 0.0;
    }
};

/**
 * One gateway-shaped "session": its event reschedules itself after a
 * pseudo-random sub-millisecond delay and cancels + re-arms a deadline
 * timer ~1ms out (usually cancelled before it fires — exactly how
 * serving timeouts behave).  All randomness comes from per-session
 * SplitMix64 state advanced inside the callbacks, so the two kernels
 * see byte-identical schedule/cancel programs.
 */
template <typename Kernel>
struct TimersWorkload
{
    Kernel kernel;
    std::vector<std::uint64_t> state;
    std::vector<sim::EventId> deadline_id;
    std::uint64_t trace_hash = kFnvOffset;
    std::uint64_t deadline_fires = 0;

    void
    mixin(std::uint64_t value)
    {
        trace_hash = (trace_hash ^ value) * kFnvPrime;
    }

    void
    mixin_time(Seconds when)
    {
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof when);
        __builtin_memcpy(&bits, &when, sizeof bits);
        mixin(bits);
    }

    void
    on_fire(std::size_t s)
    {
        mixin_time(kernel.now());
        mixin(s * 2);
        const std::uint64_t h = splitmix64(state[s]);
        if (deadline_id[s] != sim::kInvalidEvent)
            mixin(kernel.cancel(deadline_id[s]) ? 1 : 0);
        deadline_id[s] = kernel.schedule(
            1e-3 + 1e-6 * static_cast<double>((h >> 10) & 1023),
            [this, s] { on_deadline(s); });
        kernel.schedule(1e-6 * static_cast<double>(h & 1023),
                        [this, s] { on_fire(s); });
    }

    void
    on_deadline(std::size_t s)
    {
        deadline_id[s] = sim::kInvalidEvent;
        ++deadline_fires;
        mixin_time(kernel.now());
        mixin(s * 2 + 1);
    }

    TimersResult
    run(std::size_t outstanding, Seconds horizon)
    {
        state.resize(outstanding);
        deadline_id.assign(outstanding, sim::kInvalidEvent);
        for (std::size_t s = 0; s < outstanding; ++s) {
            state[s] = 0xD1B54A32D192ED03ull ^ (s * 0x9E3779B97F4A7C15ull);
            kernel.schedule(1e-9 * static_cast<double>(s),
                            [this, s] { on_fire(s); });
        }
        const auto start = std::chrono::steady_clock::now();
        kernel.run_until(horizon);
        const auto stop = std::chrono::steady_clock::now();

        TimersResult result;
        result.events = kernel.events_executed();
        result.seconds =
            std::chrono::duration<double>(stop - start).count();
        result.trace_hash = trace_hash;
        result.deadline_fires = deadline_fires;
        return result;
    }
};

/** Warm-up + min-of-N wrapper: a fresh workload per run (the DES
 *  program is deterministic, so events/hash are per-run invariants and
 *  only the wall varies).  Returns the last run's counters with the
 *  reduced wall summary. */
template <typename Kernel>
TimersResult
run_timers(std::size_t outstanding, Seconds horizon, int runs,
           bench::WallStats &wall)
{
    TimersResult result;
    bench::WallSamples samples;
    for (int i = 0; i <= runs; ++i) {
        TimersWorkload<Kernel> workload;
        result = workload.run(outstanding, horizon);
        if (i > 0) // run 0 is the warm-up
            samples.add(result.seconds);
    }
    wall = samples.stats();
    result.seconds = wall.min_seconds;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_core.json";
    const std::size_t outstanding =
        argc > 2 ? static_cast<std::size_t>(std::stoull(argv[2])) : 65536;
    const Seconds horizon = argc > 3 ? std::stod(argv[3]) : 0.05;

    std::cout << "session-timer workload: " << outstanding
              << " outstanding events, " << format_seconds(horizon)
              << " of virtual time (min-of-3, build "
              << bench::build_type() << ")\n";

    const int runs = 3; // shared warm-up + min-of-N policy
    bench::WallStats baseline_wall;
    const TimersResult baseline = run_timers<sim::LegacySimulator>(
        outstanding, horizon, runs, baseline_wall);
    std::cout << "  legacy priority_queue kernel: " << baseline.events
              << " events in " << format_seconds(baseline.seconds)
              << " (" << format_fixed(baseline.events_per_second() / 1e6, 2)
              << "M events/s)\n";

    bench::WallStats indexed_wall;
    const TimersResult indexed = run_timers<sim::Simulator>(
        outstanding, horizon, runs, indexed_wall);
    std::cout << "  two-tier slab kernel:         " << indexed.events
              << " events in " << format_seconds(indexed.seconds) << " ("
              << format_fixed(indexed.events_per_second() / 1e6, 2)
              << "M events/s)\n";

    const bool identical = baseline.trace_hash == indexed.trace_hash &&
                           baseline.events == indexed.events &&
                           baseline.deadline_fires ==
                               indexed.deadline_fires;
    const double speedup =
        baseline.seconds > 0.0 && indexed.seconds > 0.0
            ? indexed.events_per_second() / baseline.events_per_second()
            : 0.0;
    std::cout << "  fire traces: "
              << (identical ? "identical" : "DIVERGED") << ", speedup x"
              << format_fixed(speedup, 2) << "\n";

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"helm-bench-core-v1\",\n"
        << "  \"build_type\": \"" << bench::build_type() << "\",\n"
        << "  \"queue\": {\n    \"outstanding\": " << outstanding
        << ",\n    \"events\": " << indexed.events << ",\n    ";
    bench::json_number(out, "baseline_events_per_s",
                       baseline.events_per_second());
    out << ",\n    ";
    bench::json_number(out, "indexed_events_per_s",
                       indexed.events_per_second());
    out << ",\n    ";
    bench::json_wall(out, "baseline_wall", baseline_wall);
    out << ",\n    ";
    bench::json_wall(out, "indexed_wall", indexed_wall);
    out << ",\n    ";
    bench::json_number(out, "speedup", speedup);
    out << ",\n    \"identical\": " << (identical ? "true" : "false")
        << "\n  }\n}\n";
    out.close();

    std::cout << "wrote " << out_path << "\n";
    return 0;
}
