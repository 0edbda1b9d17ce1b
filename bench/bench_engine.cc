/**
 * @file
 * CI gate for the engine fast path: the StepScheduleCache memoizing
 * simulate_inference.  Emits a helm-bench-engine-v1 JSON document
 * (default BENCH_engine.json) that tools/check_bench.py validates.
 *
 * One section, run cache-off then cache-on with the shared warm-up +
 * min-of-N harness from bench_util.h: OPT-175B All-CPU (compressed,
 * batch 44) through simulate_inference.  Off pays the full placement +
 * schedule compilation + closed-form executor run every call; on pays
 * one miss and then replays the memoized run.  Correctness gate: the
 * serialized run metrics are byte-identical.  serve.speedup is the
 * cache's own claim.  That the cache never changes a gateway drive
 * (driver report, metrics snapshot, trace, DES event count) is
 * asserted by Driver.StepCacheDoesNotChangeTheRun.
 *
 * CI gates serve.speedup >= 3 and serve.identical.
 */
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/helm.h"
#include "runtime/step_cache.h"

namespace {

using namespace helm;

[[noreturn]] void
die(const char *what, const Status &status)
{
    std::fprintf(stderr, "bench_engine: %s: %s\n", what,
                 status.to_string().c_str());
    std::exit(1);
}

void
append_samples(std::ostringstream &out, const char *key,
               const std::vector<double> &samples)
{
    out << key << ":";
    char buf[40];
    for (double v : samples) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out << buf << ",";
    }
    out << "\n";
}

// ---- serve section: OPT-175B All-CPU through simulate_inference ------

runtime::ServingSpec
serve_spec()
{
    return bench::opt175b_spec(mem::ConfigKind::kNvdram,
                               placement::PlacementKind::kAllCpu, 44,
                               true);
}

/** Everything sim-side a run produces, rendered to comparable bytes. */
std::string
serialize_run(const runtime::RunResult &result)
{
    std::ostringstream out;
    char buf[40];
    auto num = [&](const char *key, double v) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out << key << ":" << buf << "\n";
    };
    num("ttft", result.metrics.ttft);
    num("tbt", result.metrics.tbt);
    num("throughput", result.metrics.throughput);
    num("total_time", result.metrics.total_time);
    out << "total_tokens:" << result.metrics.total_tokens << "\n"
        << "model_bytes:" << result.model_bytes << "\n"
        << "ndp_steps:" << result.ndp_steps << "\n";
    append_samples(out, "per_batch_ttft", result.metrics.per_batch_ttft);
    append_samples(out, "per_batch_tbt", result.metrics.per_batch_tbt);
    return out.str();
}

std::string
run_serve_once()
{
    auto result = runtime::simulate_inference(serve_spec());
    if (!result.is_ok())
        die("serve simulation failed", result.status());
    return serialize_run(*result);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_engine.json";
    const int serve_runs = 3;

    if (!bench::build_type_optimized())
        std::cerr << "bench_engine: WARNING: built as '"
                  << bench::build_type()
                  << "' — walls are not comparable to CI (see "
                     "CONTRIBUTING.md)\n";

    // ---- serve: cache off vs on --------------------------------------
    runtime::set_step_cache_enabled(false);
    std::string serve_off_bytes;
    const bench::WallStats serve_off = bench::time_min_of(
        1, serve_runs, [&] { serve_off_bytes = run_serve_once(); });

    runtime::set_step_cache_enabled(true);
    runtime::step_cache().clear();
    std::string serve_on_bytes;
    // Warm-up pays the one miss; the timed calls are pure hits — the
    // steady state every sweep/tune iteration sees.
    const bench::WallStats serve_on = bench::time_min_of(
        1, serve_runs, [&] { serve_on_bytes = run_serve_once(); });

    const bool serve_identical = serve_off_bytes == serve_on_bytes;
    const double serve_speedup =
        serve_on.min_seconds > 0.0
            ? serve_off.min_seconds / serve_on.min_seconds
            : 0.0;
    std::cout << "serve: OPT-175B All-CPU b44, off "
              << format_seconds(serve_off.min_seconds) << " vs on "
              << format_seconds(serve_on.min_seconds) << " (x"
              << format_fixed(serve_speedup, 1) << ", metrics "
              << (serve_identical ? "identical" : "DIVERGED") << ")\n";

    // ---- artifact -----------------------------------------------------
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"helm-bench-engine-v1\",\n"
        << "  \"build_type\": \"" << bench::build_type() << "\",\n"
        << "  \"serve\": {\n    \"model\": \"opt-175b\",\n"
        << "    \"placement\": \"allcpu\",\n    \"batch\": 44,\n    ";
    bench::json_wall(out, "off_wall", serve_off);
    out << ",\n    ";
    bench::json_wall(out, "on_wall", serve_on);
    out << ",\n    ";
    bench::json_number(out, "speedup", serve_speedup);
    out << ",\n    \"identical\": "
        << (serve_identical ? "true" : "false") << "\n  }\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";

    return serve_identical ? 0 : 1;
}
