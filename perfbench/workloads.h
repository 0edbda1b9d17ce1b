/**
 * @file
 * The three workloads of the repo benchmark.  Each call runs one
 * complete workload iteration, the way one fresh `helmsim` invocation
 * would: set-up, simulate, report.  The host-time phases are
 * contiguous, so setup_s + simulate_s + report_s == total_s.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "probe.h"

namespace perfbench {

/** What one workload iteration measured and checked. */
struct Outcome
{
    double setup_s = 0.0;
    double simulate_s = 0.0;
    double report_s = 0.0;
    double total_s = 0.0;
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;
    double rss_setup_mb = 0.0;
    /** Simulated units finished in the simulate phase. */
    double units = 0.0;
    std::string unit;

    /** Public calls into the program and correctness checks run; a
     *  line per call that returned non-OK or check that failed. */
    std::uint64_t calls = 0;
    std::uint64_t checks = 0;
    std::vector<std::string> failures;

    /** FNV-1a over the simulated outputs (see Digest). */
    std::string digest;
    /** Per-layer counts and span-derived times, in BENCHMARK.json
     *  per_layer names. */
    std::vector<std::pair<std::string, double>> layers;
    /** Cache counters proving the iteration started cold. */
    std::vector<std::pair<std::string, double>> isolation;
};

/**
 * One iteration's bookkeeping: phase clock, call accounting, checks,
 * and the parent span calls are recorded under.
 */
class Iteration
{
  public:
    Iteration(Spans &spans, std::uint64_t seed, std::uint64_t trace,
              std::size_t jobs);

    std::uint64_t seed() const { return seed_; }
    std::size_t jobs() const { return jobs_; }
    Spans &spans() { return spans_; }
    std::uint64_t trace() const { return trace_; }
    Outcome &outcome() { return outcome_; }

    /** Empty the process-global step cache and restart the peak-RSS
     *  watermark, then start the clock: the set-up phase begins. */
    void begin();
    void setup_done();
    void simulate_done(double units, const char *unit);
    void report_done();

    /** The span of the phase in progress (parent of call spans). */
    std::uint64_t phase_span() const { return phase_span_; }

    /** Count one public call; false (and a failure line) when not OK. */
    bool call(const helm::Status &status, const char *what);
    /** Count one correctness check. */
    void check(bool holds, const std::string &what);

    void layer(const std::string &name, double value)
    {
        outcome_.layers.emplace_back(name, value);
    }
    /** Summed duration of this iteration's spans of layer.name. */
    double span_total(const char *layer, const char *name) const;

  private:
    void open_phase(const char *name);

    Spans &spans_;
    std::uint64_t seed_;
    std::uint64_t trace_;
    std::size_t jobs_;
    Outcome outcome_;
    double t_begin_ = 0.0;
    double t_setup_ = 0.0;
    double t_simulate_ = 0.0;
    double cpu_begin_ = 0.0;
    std::uint64_t phase_span_ = 0;
    std::uint64_t cache_hits_ = 0;
    std::uint64_t cache_misses_ = 0;
    std::uint64_t cache_stream_hits_ = 0;
};

void gateway_chat(Iteration &it);
void explore_cold(Iteration &it);
void serve_edf(Iteration &it);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
