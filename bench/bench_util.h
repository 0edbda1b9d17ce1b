/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries.
 *
 * Every bench prints (a) a human-readable table of the rows the paper's
 * figure plots and (b) a machine-readable CSV block delimited by
 * "# CSV <tag>" lines, so the figures can be re-plotted directly from
 * bench output.
 */
#ifndef HELM_BENCH_BENCH_UTIL_H
#define HELM_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "core/helm.h"

namespace helm::bench {

/** Run a spec or abort the bench with the failure reason. */
inline runtime::RunResult
run_or_die(const runtime::ServingSpec &spec)
{
    auto result = runtime::simulate_inference(spec);
    if (!result.is_ok()) {
        std::fprintf(stderr, "bench: simulation failed: %s\n",
                     result.status().to_string().c_str());
        std::exit(1);
    }
    return std::move(result).value();
}

/** Milliseconds with 2 decimals. */
inline std::string
ms(Seconds s)
{
    return format_fixed(s * 1e3, 2);
}

/** Begin a named CSV block on stdout. */
inline void
csv_begin(const std::string &tag)
{
    std::cout << "# CSV " << tag << "\n";
}

/** End the current CSV block. */
inline void
csv_end()
{
    std::cout << "# END\n\n";
}

/** Standard bench banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::cout << "=== " << what << " ===\n"
              << "Reproduces: " << paper_ref << "\n"
              << "Library: helm-sim " << version() << " — "
              << paper_citation() << "\n\n";
}

// ---- wall-clock summary for the host-timed CI bench -----------------
//
// bench_trace measures host wall time and reports it in one
// `{"min_seconds", "median_seconds", "runs"}` JSON wall shape.
// Min-of-N is the right reducer for a deterministic simulator: every
// run does identical work, so the minimum is the cleanest estimate of
// the true cost and the median documents the noise floor.  The warm-up
// run (not timed) pages the binary and warms allocator pools so run 1
// is never an outlier by construction.
//
// HELM_BENCH_BUILD_TYPE is injected by bench/CMakeLists.txt from
// CMAKE_BUILD_TYPE; artifacts carry it as a "build_type" field so a
// Debug-built number can never masquerade as a Release measurement.

#ifndef HELM_BENCH_BUILD_TYPE
#define HELM_BENCH_BUILD_TYPE ""
#endif

/** CMAKE_BUILD_TYPE the binary was compiled under ("unknown" when the
 *  definition was not injected, e.g. a hand-rolled compile). */
inline const char *
build_type()
{
    return HELM_BENCH_BUILD_TYPE[0] != '\0' ? HELM_BENCH_BUILD_TYPE
                                            : "unknown";
}

/** The common {min, median, runs} wall summary. */
struct WallStats
{
    double min_seconds = 0.0;
    double median_seconds = 0.0;
    int runs = 0;
};

/** Accumulator for loops that interleave extra bookkeeping between
 *  timed runs (bench_trace alternates plain/traced inside one loop).
 *  Feed one wall per run; stats() reduces to the shared shape. */
class WallSamples
{
  public:
    void
    add(double wall_seconds)
    {
        walls_.push_back(wall_seconds);
    }

    WallStats
    stats() const
    {
        WallStats out;
        out.runs = static_cast<int>(walls_.size());
        if (walls_.empty())
            return out;
        std::vector<double> sorted = walls_;
        std::sort(sorted.begin(), sorted.end());
        out.min_seconds = sorted.front();
        out.median_seconds = sorted[sorted.size() / 2];
        return out;
    }

  private:
    std::vector<double> walls_;
};

/** `"key": <value>` with %.6g formatting — the JSON number style every
 *  bench artifact uses. */
inline void
json_number(std::ostream &out, const char *key, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    out << "\"" << key << "\": " << buffer;
}

/** `"key": {"min_seconds": ..., "median_seconds": ..., "runs": N}` —
 *  the shared wall shape (no trailing comma or newline). */
inline void
json_wall(std::ostream &out, const char *key, const WallStats &stats)
{
    out << "\"" << key << "\": {";
    json_number(out, "min_seconds", stats.min_seconds);
    out << ", ";
    json_number(out, "median_seconds", stats.median_seconds);
    out << ", \"runs\": " << stats.runs << "}";
}

/** The paper's serving spec skeleton for OPT-175B experiments. */
inline runtime::ServingSpec
opt175b_spec(mem::ConfigKind memory, placement::PlacementKind placement,
             std::uint64_t batch, bool compressed)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt175B);
    spec.memory = memory;
    spec.placement = placement;
    spec.compress_weights = compressed;
    spec.batch = batch;
    spec.repeats = 2; // first repeat discarded per Sec. III-C
    return spec;
}

} // namespace helm::bench

#endif // HELM_BENCH_BENCH_UTIL_H
