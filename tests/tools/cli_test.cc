/**
 * @file
 * CLI tests: run the helmsim commands in-process through run_helmsim()
 * and check exit codes and output.  Covers the flag diagnostics — a
 * malformed value or an incompatible combination must fail fast with a
 * one-line message, not silently measure the wrong thing — and the
 * serve/cluster N=1 equivalence.
 */
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "helmsim.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HELM_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HELM_SANITIZED 1
#endif
#endif

namespace {

struct CliResult
{
    int exit_code = -1;
    std::string out;    //!< stdout
    std::string err;    //!< stderr
    std::string output; //!< stdout then stderr
};

/** Split a command line at spaces; "double quotes" group words. */
std::vector<std::string>
split_words(const std::string &line)
{
    std::vector<std::string> words;
    std::string word;
    bool quoted = false;
    bool pending = false;
    for (const char c : line) {
        if (c == '"') {
            quoted = !quoted;
            pending = true;
        } else if (c == ' ' && !quoted) {
            if (pending)
                words.push_back(word);
            word.clear();
            pending = false;
        } else {
            word += c;
            pending = true;
        }
    }
    if (pending)
        words.push_back(word);
    return words;
}

CliResult
run_cli(const std::string &args)
{
    std::ostringstream out;
    std::ostringstream err;
    CliResult result;
    result.exit_code = helm::run_helmsim(split_words(args), out, err);
    result.out = out.str();
    result.err = err.str();
    result.output = result.out + result.err;
    return result;
}

/** The serving block common to `serve` and `cluster` output: drop the
 *  cluster-only header and the trailing per-GPU/port tables. */
std::string
serving_block(const std::string &output)
{
    const std::size_t start = output.find("OPT-1.3B on");
    if (start == std::string::npos)
        return output;
    const std::size_t end = output.find("Per-GPU utilization", start);
    return output.substr(
        start, end == std::string::npos ? end : end - start);
}

constexpr const char *kSmall =
    "--model OPT-1.3B --memory NVDRAM --placement All-CPU "
    "--rate 2 --duration 5";

TEST(Cli, HelpExitsZero)
{
    EXPECT_EQ(run_cli("--help").exit_code, 0);
    EXPECT_EQ(run_cli("cluster --help").exit_code, 0);
}

TEST(Cli, UnknownSubcommandFails)
{
    const CliResult result = run_cli("frobnicate");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("unknown subcommand"),
              std::string::npos);
}

TEST(Cli, KvNoPrefetchWithoutTieringFailsFast)
{
    for (const char *cmd : {"run", "serve", "cluster"}) {
        const CliResult result = run_cli(
            std::string(cmd) + " --model OPT-1.3B --kv-no-prefetch");
        EXPECT_EQ(result.exit_code, 2) << cmd;
        EXPECT_NE(result.output.find("--kv-no-prefetch"),
                  std::string::npos)
            << cmd;
        EXPECT_NE(result.output.find("--kv-tiering"), std::string::npos)
            << cmd;
        // One-line diagnostic: no usage dump appended.
        EXPECT_EQ(result.output.find("subcommands"), std::string::npos);
    }
}

TEST(Cli, KvTierKnobsWithoutTieringFailFast)
{
    EXPECT_EQ(run_cli("run --kv-host-gb 16").exit_code, 2);
    EXPECT_EQ(run_cli("serve --kv-block-tokens 32").exit_code, 2);
    EXPECT_EQ(run_cli("run --kv-eviction lru").exit_code, 2);
}

TEST(Cli, KvOffloadConflictsWithTiering)
{
    const CliResult result =
        run_cli("run --model OPT-1.3B --kv-offload --kv-tiering");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("mutually exclusive"),
              std::string::npos);
}

TEST(Cli, ClusterRejectsRouterOutsideReplicaMode)
{
    const CliResult result =
        run_cli("cluster --gpus 2 --parallelism tensor --router jsq");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--router"), std::string::npos);
}

TEST(Cli, ClusterRejectsMicroBatchesOutsidePipelineMode)
{
    const CliResult result =
        run_cli("cluster --gpus 2 --parallelism replica "
                "--micro-batches 4");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--micro-batches"), std::string::npos);
}

TEST(Cli, ClusterRejectsArrivalFlagsWithSaturate)
{
    const CliResult result = run_cli("cluster --saturate --rate 3");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--saturate"), std::string::npos);
}

TEST(Cli, ClusterRejectsSaturateFlagsWithoutSaturate)
{
    const CliResult result = run_cli("cluster --batch 4");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--saturate"), std::string::npos);
}

TEST(Cli, ClusterRejectsUnknownParallelism)
{
    const CliResult result = run_cli("cluster --parallelism diagonal");
    EXPECT_EQ(result.exit_code, 2);
}

TEST(Cli, ClusterOneGpuReproducesServeExactly)
{
    const CliResult serve = run_cli(std::string("serve ") + kSmall);
    const CliResult clustered = run_cli(
        std::string("cluster --gpus 1 --parallelism replica ") + kSmall);
    ASSERT_EQ(serve.exit_code, 0) << serve.output;
    ASSERT_EQ(clustered.exit_code, 0) << clustered.output;
    // Identical serving metrics, bit for bit, through the CLI.
    EXPECT_EQ(serving_block(serve.output),
              serving_block(clustered.output));
}

TEST(Cli, SweepJobsOutputIsByteIdentical)
{
    constexpr const char *kGrid =
        "sweep --dims \"model=OPT-1.3B;memory=NVDRAM,DRAM;"
        "batch=1,2;placement=Baseline,All-CPU\" "
        "--pivot memory,batch,tokens_per_s";
    const CliResult sequential =
        run_cli(std::string(kGrid) + " --jobs 1");
    const CliResult parallel =
        run_cli(std::string(kGrid) + " --jobs 4");
    ASSERT_EQ(sequential.exit_code, 0) << sequential.output;
    ASSERT_EQ(parallel.exit_code, 0) << parallel.output;
    EXPECT_NE(sequential.out.find("tokens_per_s"), std::string::npos);
    EXPECT_EQ(parallel.out, sequential.out);
}

TEST(Cli, SweepReportsTimingSummary)
{
    const std::string metrics = "/tmp/helm_cli_sweep_metrics.json";
    const CliResult result = run_cli(
        "sweep --dims \"model=OPT-1.3B;batch=1,2\" --jobs 2 "
        "--metrics-out " +
        metrics);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("swept 2 points in"),
              std::string::npos);
    EXPECT_NE(result.output.find("points/s"), std::string::npos);
    EXPECT_NE(result.output.find("jobs=2)"), std::string::npos);
    // The sweep's only series are its own: no memo reports beside it.
    std::ifstream file(metrics);
    std::stringstream json;
    json << file.rdbuf();
    const std::string snapshot = json.str();
    const std::string name_key = "\"name\":\"";
    std::size_t names = 0;
    for (std::size_t at = snapshot.find(name_key); at != std::string::npos;
         at = snapshot.find(name_key, at + 1), ++names) {
        EXPECT_EQ(snapshot.compare(at + name_key.size(), 11, "helm_sweep_"),
                  0)
            << snapshot.substr(at, 60);
    }
    EXPECT_GT(names, 0u);
    std::remove(metrics.c_str());
}

TEST(Cli, TuneJobsOutputIsByteIdentical)
{
    constexpr const char *kSearch =
        "tune --model OPT-1.3B --batch-limit 4";
    const CliResult sequential =
        run_cli(std::string(kSearch) + " --jobs 1");
    const CliResult parallel =
        run_cli(std::string(kSearch) + " --jobs 4");
    ASSERT_EQ(sequential.exit_code, 0) << sequential.output;
    ASSERT_EQ(parallel.exit_code, 0) << parallel.output;
    EXPECT_NE(sequential.out.find("best:"), std::string::npos);
    EXPECT_EQ(parallel.out, sequential.out);
}

/** @p output without the lines that carry host rates ("(host)"):
 *  they measure the machine, not the simulated run. */
std::string
without_host_rates(const std::string &output)
{
    std::istringstream in(output);
    std::string kept;
    std::string line;
    while (std::getline(in, line))
        if (line.find("(host)") == std::string::npos)
            kept += line + "\n";
    return kept;
}

TEST(Cli, GatewayOutputIgnoresTheStepCache)
{
    // No state outlives a command: a second identical drive, after an
    // unrelated one, delivers the same turns with the same DES event
    // count.
    constexpr const char *kDrive = "gateway --requests 2000 --seed 7";
    const CliResult first = run_cli(kDrive);
    const CliResult unrelated = run_cli("gateway --requests 500 --seed 3");
    const CliResult again = run_cli(kDrive);
    ASSERT_EQ(first.exit_code, 0) << first.output;
    ASSERT_EQ(unrelated.exit_code, 0) << unrelated.output;
    ASSERT_EQ(again.exit_code, 0) << again.output;
    EXPECT_NE(first.out.find("DES events"), std::string::npos);
    const std::string kept = without_host_rates(first.out);
    EXPECT_EQ(std::count(first.out.begin(), first.out.end(), '\n') -
                  std::count(kept.begin(), kept.end(), '\n'),
              2);
    EXPECT_EQ(without_host_rates(again.out), kept);
}

TEST(Cli, SchedulerKnobsRequireIterationScheduler)
{
    for (const char *cmd : {"serve", "cluster"}) {
        const CliResult result = run_cli(
            std::string(cmd) + " --model OPT-1.3B --max-preemptions 2");
        EXPECT_EQ(result.exit_code, 2) << cmd;
        EXPECT_NE(result.output.find("--max-preemptions"),
                  std::string::npos)
            << cmd;
        EXPECT_NE(result.output.find("--scheduler"), std::string::npos)
            << cmd;
    }
    EXPECT_EQ(run_cli("serve --kv-swap-exposed").exit_code, 2);
}

TEST(Cli, MaxQueueDelayConflictsWithContinuousSchedulers)
{
    const CliResult result = run_cli(
        "serve --model OPT-1.3B --scheduler continuous "
        "--max-queue-delay-ms 100");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--max-queue-delay-ms"),
              std::string::npos);
}

TEST(Cli, BurstKnobsRequireModulatedArrival)
{
    const CliResult result =
        run_cli("serve --model OPT-1.3B --burst-factor 4");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--burst-factor"), std::string::npos);
    EXPECT_NE(result.output.find("--arrival"), std::string::npos);

    // Diurnal has no duty cycle.
    EXPECT_EQ(run_cli("serve --model OPT-1.3B --arrival diurnal "
                      "--burst-duty 0.5")
                  .exit_code,
              2);
}

TEST(Cli, UnknownSchedulerFailsFast)
{
    const CliResult result =
        run_cli("serve --model OPT-1.3B --scheduler lifo");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("fcfs | continuous | edf"),
              std::string::npos);
}

TEST(Cli, ClusterRejectsIterationSchedulersBeyondOneGpu)
{
    const CliResult result = run_cli(
        "cluster --model OPT-1.3B --gpus 2 --scheduler edf "
        "--rate 2 --duration 5");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--scheduler"), std::string::npos);

    const CliResult saturate =
        run_cli("cluster --saturate --scheduler continuous");
    EXPECT_EQ(saturate.exit_code, 2);
    EXPECT_NE(saturate.output.find("--saturate"), std::string::npos);
}

TEST(Cli, ExplicitFcfsSchedulerFlagIsByteIdenticalToDefault)
{
    const CliResult plain = run_cli(std::string("serve ") + kSmall);
    const CliResult fcfs = run_cli(
        std::string("serve --scheduler fcfs ") + kSmall);
    ASSERT_EQ(plain.exit_code, 0) << plain.output;
    ASSERT_EQ(fcfs.exit_code, 0) << fcfs.output;
    EXPECT_EQ(fcfs.out, plain.out);
    // No scheduler section leaks into fcfs output.
    EXPECT_EQ(plain.output.find("scheduler:"), std::string::npos);
}

TEST(Cli, EdfServePrintsSchedulerAndSwapSections)
{
    const CliResult result = run_cli(
        std::string("serve --scheduler edf --deadline-ms 20000 ") +
        kSmall);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("scheduler:"), std::string::npos);
    EXPECT_NE(result.output.find("edf"), std::string::npos);
    EXPECT_NE(result.output.find("kv swap"), std::string::npos);
    EXPECT_NE(result.output.find("deadlines:"), std::string::npos);
}

TEST(Cli, FcfsExportsTheDeadlinesItsTraceMisses)
{
    // Two requests whose trace deadlines no batch can meet and one
    // without a deadline: fcfs reports the two misses on stdout and in
    // the metrics artifact.
    const std::string arrivals = "/tmp/helm_cli_fcfs_deadline_arrivals.txt";
    {
        std::ofstream file(arrivals);
        file << "0.0 128 21 0 0.001\n0.0 128 21 0 0.002\n1.0 128 21\n";
    }
    const std::string metrics = "/tmp/helm_cli_fcfs_deadline_metrics.json";
    const CliResult result =
        run_cli("serve --model OPT-1.3B --arrivals " + arrivals +
                " --metrics-out " + metrics);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.out.find("deadlines:   2 missed\n"), std::string::npos)
        << result.out;
    std::ifstream file(metrics);
    std::stringstream json;
    json << file.rdbuf();
    EXPECT_NE(json.str().find("{\"name\":\"helm_serving_deadline_misses_"
                              "total\",\"type\":\"counter\",\"labels\":{},"
                              "\"value\":2}"),
              std::string::npos)
        << json.str();
    std::remove(arrivals.c_str());
    std::remove(metrics.c_str());
}

TEST(Cli, FcfsServeTakesADefaultDeadline)
{
    const CliResult result = run_cli(
        std::string("serve --scheduler fcfs --deadline-ms 1 ") + kSmall);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.out.find("deadlines:   "), std::string::npos)
        << result.out;
    EXPECT_EQ(result.out.find("deadlines:   0 missed"), std::string::npos)
        << result.out;
    // No deadline, no deadline line: fcfs output is otherwise unchanged.
    const CliResult plain = run_cli(std::string("serve ") + kSmall);
    ASSERT_EQ(plain.exit_code, 0) << plain.output;
    EXPECT_EQ(plain.out.find("deadlines:"), std::string::npos);
}

TEST(Cli, EdfTraceShowsKvSwapTrackAndFcfsTraceDoesNot)
{
    // Hand-crafted preemption microcosm: two long lax jobs hold both
    // slots when two urgent tight-deadline jobs land, forcing EDF to
    // demote and later promote the victims' KV.  The chrome trace must
    // draw that traffic; the fcfs trace of the same stream must not
    // even declare the track.
    const std::string arrivals = "/tmp/helm_cli_swap_arrivals.txt";
    {
        std::ofstream file(arrivals);
        file << "0.0 256 64 0 1000.0\n0.0 256 64 0 1000.0\n"
                "0.1 256 64 0 1000.0\n5.0 64 8 1 9.0\n5.1 64 8 1 9.2\n";
    }
    const std::string base =
        "serve --model OPT-1.3B --memory NVDRAM --placement All-CPU "
        "--arrivals " +
        arrivals + " --max-batch 2 ";

    const std::string edf_trace = "/tmp/helm_cli_swap_edf_trace.json";
    const CliResult edf = run_cli(
        base + "--scheduler edf --tenants 2 --trace " + edf_trace);
    ASSERT_EQ(edf.exit_code, 0) << edf.output;
    std::ifstream edf_file(edf_trace);
    std::stringstream edf_json;
    edf_json << edf_file.rdbuf();
    EXPECT_NE(edf_json.str().find("KV swap (preemption)"),
              std::string::npos);
    EXPECT_NE(edf_json.str().find("KV demote r"), std::string::npos);
    EXPECT_NE(edf_json.str().find("KV promote r"), std::string::npos);

    const std::string fcfs_trace = "/tmp/helm_cli_swap_fcfs_trace.json";
    const CliResult fcfs = run_cli(base + "--trace " + fcfs_trace);
    ASSERT_EQ(fcfs.exit_code, 0) << fcfs.output;
    std::ifstream fcfs_file(fcfs_trace);
    std::stringstream fcfs_json;
    fcfs_json << fcfs_file.rdbuf();
    EXPECT_GT(fcfs_json.str().size(), 0u);
    EXPECT_EQ(fcfs_json.str().find("KV swap"), std::string::npos);
    std::remove(arrivals.c_str());
    std::remove(edf_trace.c_str());
    std::remove(fcfs_trace.c_str());
}

TEST(Cli, DevicesListsTheWholeZoo)
{
    const CliResult result = run_cli("devices");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    for (const char *name :
         {"DRAM", "NVDRAM", "MemoryMode", "SSD", "FSDAX", "CXL-FPGA",
          "CXL-ASIC", "NDP-DIMM", "HBF"}) {
        EXPECT_NE(result.output.find(name), std::string::npos) << name;
    }
    // Tier column distinguishes host-tier from storage-tier devices.
    EXPECT_NE(result.output.find("storage"), std::string::npos);
    EXPECT_NE(result.output.find("host"), std::string::npos);
}

TEST(Cli, RunHostFlagsFailFastWithOneLine)
{
    // --cxl-gbps replaces the host --memory selects: naming both fails.
    CliResult result =
        run_cli("run --model OPT-1.3B --memory NVDRAM --cxl-gbps 32");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--cxl-gbps"), std::string::npos);
    EXPECT_NE(result.output.find("--memory"), std::string::npos);
    // One-line diagnostic: no usage dump appended.
    EXPECT_EQ(result.output.find("subcommands"), std::string::npos);

    // An unknown name lists the registered devices, on one line.
    result = run_cli("run --model OPT-1.3B --memory abacus");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("abacus"), std::string::npos);
    EXPECT_NE(result.output.find("NDP-DIMM"), std::string::npos);
    EXPECT_NE(result.output.find("HBF"), std::string::npos);
    EXPECT_EQ(result.output.find('\n'), result.output.size() - 1);

    // --compute-site without an NDP-capable host.
    result = run_cli("run --model OPT-1.3B --compute-site auto");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("NDP-capable"), std::string::npos);
}

TEST(Cli, RunReportsTheHostItRanOn)
{
    // A zoo host is priced and labelled as itself, not as NVDRAM.
    const std::string prom = "/tmp/helm_cli_zoo_host.prom";
    CliResult result = run_cli(
        "run --model OPT-1.3B --memory hbf --energy --prom-out " + prom);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("energy: n/a"), std::string::npos);
    EXPECT_EQ(result.output.find("J/token"), std::string::npos);
    std::ifstream file(prom);
    std::stringstream text;
    text << file.rdbuf();
    EXPECT_NE(text.str().find("memory=\"HBF\""), std::string::npos);
    std::remove(prom.c_str());

    // A custom expander alone takes the host-offload default policy.
    result = run_cli("run --model OPT-1.3B --cxl-gbps 64 --energy");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("J/token"), std::string::npos);
}

TEST(Cli, MembenchPicksItsHostLikeEveryCommand)
{
    // No host flag: Fig. 3's trio.
    CliResult result = run_cli("membench");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    for (const char *name : {"DRAM", "NVDRAM", "MemoryMode"})
        EXPECT_NE(result.output.find(name), std::string::npos) << name;

    result = run_cli("membench --memory CXL-ASIC");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("CXL-ASIC"), std::string::npos);
    EXPECT_EQ(result.output.find("NVDRAM"), std::string::npos);

    result = run_cli("membench --cxl-gbps 40");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("CXL-custom"), std::string::npos);
}

TEST(Cli, MembenchRejectsStorageAndUnknownHostsWithOneLine)
{
    // membench copies from mapped memory: a storage tier has none.
    CliResult result = run_cli("membench --memory SSD");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("storage tier"), std::string::npos);
    EXPECT_EQ(result.output.find('\n'), result.output.size() - 1);

    result = run_cli("membench --memory abacus");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("abacus"), std::string::npos);
    EXPECT_EQ(result.output.find('\n'), result.output.size() - 1);
}

TEST(Cli, RunOnZooDeviceReportsNearDataSteps)
{
    const CliResult result = run_cli(
        "run --model OPT-1.3B --memory NDP-DIMM "
        "--compute-site auto --placement All-CPU --batch 4");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("near-data"), std::string::npos);
}

TEST(Cli, ZooSubcommandPrintsAFrontier)
{
    const CliResult result = run_cli(
        "zoo --model OPT-1.3B --devices DRAM,NDP-DIMM --batches 1,4 "
        "--no-hbf");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("frontier"), std::string::npos);
    EXPECT_NE(result.output.find("NDP-DIMM"), std::string::npos);
}

TEST(Cli, ZooUnknownDeviceFailsFast)
{
    const CliResult result =
        run_cli("zoo --model OPT-1.3B --devices DRAM,abacus");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("abacus"), std::string::npos);
}

TEST(Cli, TuneUnknownMemoryListsRegisteredDevices)
{
    const CliResult result =
        run_cli("tune --model OPT-1.3B --memory abacus");
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("--memory"), std::string::npos);
    EXPECT_NE(result.output.find("NDP-DIMM"), std::string::npos);
}

TEST(Cli, ClusterSaturateReportsPortUtilization)
{
    const CliResult result = run_cli(
        "cluster --model OPT-1.3B --memory NVDRAM --placement All-CPU "
        "--gpus 2 --parallelism tensor --saturate");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("host-read"), std::string::npos);
    EXPECT_NE(result.output.find("Per-GPU utilization"),
              std::string::npos);
}

/** The numeric flags `helmsim <command> --help` lists: those shown
 *  as `--name <int>` or `--name <number>`. */
std::vector<std::string>
numeric_flags(const std::string &command)
{
    std::istringstream help(run_cli(command + " --help").out);
    std::vector<std::string> flags;
    std::string line;
    while (std::getline(help, line)) {
        if (line.rfind("  --", 0) == 0 &&
            (line.find(" <int>") != std::string::npos ||
             line.find(" <number>") != std::string::npos))
            flags.push_back(line.substr(4, line.find(' ', 4) - 4));
    }
    return flags;
}

/** True when @p result is a bad-flag exit: code 2, nothing on stdout,
 *  exactly one line on stderr. */
bool
failed_with_one_line(const CliResult &result)
{
    return result.exit_code == 2 && result.out.empty() &&
           std::count(result.err.begin(), result.err.end(), '\n') == 1 &&
           result.err.back() == '\n';
}

TEST(Cli, MalformedNumbersFailWithOneLine)
{
    // Every numeric flag of every command, before anything is built:
    // `run --repeats -1` used to abort, `run --batch -1` and
    // `gateway --replicas -1` to spin on a wrapped 2^64 - 1.
    std::set<std::string> checked;
    for (const char *command : {"run", "serve", "cluster", "gateway",
                                "tune", "sweep", "zoo", "membench"}) {
        for (const std::string &flag : numeric_flags(command)) {
            checked.insert(std::string(command) + " --" + flag);
            for (const char *value : {"-1", "abc", "8x", "1e999"}) {
                const std::string args =
                    std::string(command) + " --" + flag + " " + value;
                const CliResult result = run_cli(args);
                EXPECT_TRUE(failed_with_one_line(result))
                    << args << ": " << result.output;
                EXPECT_EQ(result.err.find("--" + flag + ": "),
                          result.err.find("--"))
                    << args << ": " << result.err;
            }
        }
    }
    for (const char *flag :
         {"run --repeats", "run --batch", "gateway --replicas",
          "serve --rate", "cluster --gpus", "tune --tbt-ms"})
        EXPECT_EQ(checked.count(flag), 1u) << flag;
    // Finite, but past what a byte count can hold.
    EXPECT_TRUE(failed_with_one_line(
        run_cli("run --kv-tiering --kv-host-gb 1e300")));
}

TEST(Cli, HugeCountsFailFastWithOneLine)
{
    // Well-formed counts whose byte or step totals wrap 64 bits: the
    // batches and micro-batches used to hang past 5 s on a wrapped
    // (small) KV budget, the repeats and token counts to abort
    // reserving the schedule (std::bad_alloc, std::length_error).
    for (const char *args :
         {"run --batch 18446744073709551615",
          "run --batch 4611686018427387904", "run --repeats 1000000000",
          "run --micro-batches 4611686018427387904",
          "run --prompt-tokens 4611686018427387904",
          "run --output-tokens 4611686018427387904"}) {
        const auto start = std::chrono::steady_clock::now();
        const CliResult result = run_cli(args);
        const std::chrono::duration<double> took =
            std::chrono::steady_clock::now() - start;
        EXPECT_EQ(result.exit_code, 1) << args << ": " << result.output;
        EXPECT_TRUE(result.out.empty()) << args << ": " << result.out;
        EXPECT_EQ(std::count(result.err.begin(), result.err.end(), '\n'),
                  1)
            << args << ": " << result.err;
        EXPECT_LT(took.count(), 1.0) << args;
    }
}

/** Run `helmsim @p args` under a 3 GiB address-space limit, echo its
 *  stderr, and exit with its code (3 unless it printed exactly one
 *  stderr line and no stdout). */
[[noreturn]] void
run_in_3_gib(const char *args)
{
    const rlimit limit{3ull << 30, 3ull << 30};
    setrlimit(RLIMIT_AS, &limit);
    const CliResult result = run_cli(args);
    std::fputs(result.err.c_str(), stderr);
    const bool one_line =
        result.out.empty() &&
        std::count(result.err.begin(), result.err.end(), '\n') == 1;
    std::_Exit(one_line ? result.exit_code : 3);
}

TEST(Cli, SchedulesPastHostMemoryFailWithOneLine)
{
#ifdef HELM_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory needs the address space";
#endif
    // Within the simulator's event limit, but 157M-163M steps: under a
    // 3 GiB address-space limit the schedule's reservation fails, and
    // the run must end as one Status line, not std::bad_alloc.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *args :
         {"run --repeats 40000", "run --model OPT-1.3B --repeats 150000"}) {
        EXPECT_EXIT(run_in_3_gib(args), testing::ExitedWithCode(1),
                    "do not fit in host memory")
            << args;
    }
}

TEST(Cli, StrayArgumentsFailWithOneLine)
{
    for (const char *args :
         {"run --model OPT-1.3B extra-word", "run --int4 1",
          "serve --model=OPT-1.3B stray", "models --bogus",
          "configs extra", "devices --memory DRAM", "sweep --dims x"}) {
        const CliResult result = run_cli(args);
        EXPECT_TRUE(failed_with_one_line(result))
            << args << ": " << result.output;
    }
    EXPECT_NE(run_cli("run --int4 1").err.find("unexpected argument '1'"),
              std::string::npos);
}

TEST(Cli, TuneObjectiveIsLatencyOrThroughput)
{
    const std::string search =
        "tune --model OPT-1.3B --batch-limit 4 --jobs 1 --objective ";
    const CliResult latency = run_cli(search + "latency");
    const CliResult throughput = run_cli(search + "throughput");
    ASSERT_EQ(latency.exit_code, 0) << latency.output;
    ASSERT_EQ(throughput.exit_code, 0) << throughput.output;
    EXPECT_NE(latency.out, throughput.out);
    EXPECT_EQ(run_cli(search + "LATENCY").out, latency.out);

    const CliResult typo = run_cli(search + "latncy");
    EXPECT_TRUE(failed_with_one_line(typo)) << typo.output;
    EXPECT_NE(typo.err.find("latncy"), std::string::npos);
}

TEST(Cli, GatewayReplicasStayInRange)
{
    for (const char *count : {"0", "65"}) {
        const CliResult result =
            run_cli(std::string("gateway --replicas ") + count);
        EXPECT_TRUE(failed_with_one_line(result)) << result.output;
        EXPECT_NE(result.err.find("--replicas"), std::string::npos);
    }
}

} // namespace
