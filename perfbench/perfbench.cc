/**
 * @file
 * The repo benchmark's measuring process (driven by perfbench/run.py).
 *
 *   perfbench --workload <gateway-chat|explore-cold|serve-edf>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--spans-out <path>]
 *
 * Runs one untimed warm-up iteration, then workload iterations until
 * --seconds have passed, one at a time from this single process.  Each
 * iteration starts from an empty step cache, as a fresh `helmsim`
 * invocation does; the sweep runs one job per hardware thread.  With
 * --trace 1 the iterations alternate plain and traced (spans around
 * every public call), so the traced-minus-plain difference of each
 * pair is the tracing overhead.  Every iteration is printed as one
 * JSON line; run.py reduces them.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "probe.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace perfbench;

/** Measured iterations a run makes even when --seconds is short. */
constexpr int kMinIterations = 4;

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

template <typename Pairs>
std::string
object(const Pairs &pairs)
{
    std::string out = "{";
    for (const auto &[name, value] : pairs) {
        if (out.size() > 1)
            out += ",";
        out += quoted(name) + ":" + number(value);
    }
    return out + "}";
}

void
print_iteration(const Outcome &o, std::uint64_t index, bool warmup,
                bool traced, const std::map<std::string, double> &self,
                std::size_t spans)
{
    std::string failures = "[";
    for (const std::string &failure : o.failures) {
        if (failures.size() > 1)
            failures += ",";
        failures += quoted(failure);
    }
    failures += "]";
    std::cout << "{\"iteration\":" << index
              << ",\"warmup\":" << (warmup ? "true" : "false")
              << ",\"traced\":" << (traced ? "true" : "false")
              << ",\"setup_s\":" << number(o.setup_s)
              << ",\"simulate_s\":" << number(o.simulate_s)
              << ",\"report_s\":" << number(o.report_s)
              << ",\"total_s\":" << number(o.total_s)
              << ",\"cpu_s\":" << number(o.cpu_s)
              << ",\"peak_rss_mb\":" << number(o.peak_rss_mb)
              << ",\"units\":" << number(o.units)
              << ",\"unit\":" << quoted(o.unit) << ",\"calls\":" << o.calls
              << ",\"checks\":" << o.checks << ",\"failures\":" << failures
              << ",\"digest\":" << quoted(o.digest)
              << ",\"isolation\":" << object(o.isolation)
              << ",\"layers\":" << object(o.layers)
              << ",\"self\":" << object(self) << ",\"spans\":" << spans
              << "}" << std::endl;
}

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "<gateway-chat|explore-cold|serve-edf> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <path>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args{
        {"seed", "1"}, {"seconds", "10"}, {"trace", "0"}};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc)
            return usage("bad argument list");
        args[argv[i] + 2] = argv[i + 1];
        ++i;
    }
    const std::map<std::string, void (*)(Iteration &)> workloads{
        {"gateway-chat", gateway_chat},
        {"explore-cold", explore_cold},
        {"serve-edf", serve_edf}};
    const auto workload = workloads.find(args["workload"]);
    if (workload == workloads.end())
        return usage("unknown --workload");

    char *end = nullptr;
    const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
    if (*end != '\0')
        return usage("--seed takes a whole number");
    const double seconds = std::strtod(args["seconds"].c_str(), &end);
    if (*end != '\0' || !(seconds > 0.0))
        return usage("--seconds takes a positive number");
    const bool trace = args["trace"] == "1";
    const std::size_t jobs =
        std::max(1u, std::thread::hardware_concurrency());

    std::cout << "{\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
              << ",\"workload\":" << quoted(workload->first)
              << ",\"seed\":" << seed << ",\"jobs\":" << jobs
              << ",\"peak_rss_resettable\":"
              << (reset_peak_rss() ? "true" : "false") << "}" << std::endl;

    Spans spans;
    const auto run_one = [&](std::uint64_t index, bool warmup,
                             bool traced) {
        spans.set_enabled(traced);
        Iteration it(spans, seed, index, jobs);
        workload->second(it);
        spans.set_enabled(false);
        std::map<std::string, double> self;
        std::size_t count = 0;
        if (traced) {
            self = spans.self_time(index);
            count = spans.count(index);
        }
        print_iteration(it.outcome(), index, warmup, traced, self, count);
    };

    run_one(0, true, false);
    const double start = now_s();
    std::uint64_t index = 1;
    for (int measured = 0;
         measured < kMinIterations || now_s() - start < seconds;
         ++measured, ++index) {
        // Traced runs interleave plain/traced pairs, alternating which
        // side of a pair runs first.
        bool traced = false;
        if (trace) {
            const std::uint64_t pair = (index - 1) / 2;
            const bool first = (index - 1) % 2 == 0;
            traced = (pair % 2 == 0) != first;
        }
        run_one(index, false, traced);
    }

    if (trace && args.count("spans-out")) {
        std::ofstream out(args["spans-out"]);
        out << spans.chrome_json();
        if (!out)
            std::cerr << "perfbench: cannot write " << args["spans-out"]
                      << "\n";
    }
    return 0;
}
