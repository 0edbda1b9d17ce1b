/**
 * @file
 * End-to-end CLI tests: run the real helmsim binary (path injected via
 * the HELMSIM_PATH compile definition) and check exit codes and
 * output.  Covers the flag-conflict diagnostics — an incompatible
 * combination must fail fast with a one-line message, not silently
 * measure the wrong thing — and the serve/cluster N=1 equivalence.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

struct CliResult
{
    int exit_code = -1;
    std::string output; //!< stdout + stderr interleaved
};

CliResult
run_cli(const std::string &args)
{
    CliResult result;
    const std::string command =
        std::string(HELMSIM_PATH) + " " + args + " 2>&1";
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return result;
    std::array<char, 4096> buffer;
    while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr)
        result.output += buffer.data();
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        result.exit_code = WEXITSTATUS(status);
    return result;
}

/** Like run_cli but discards stderr: progress and timing lines carry
 *  wall-clock values, so byte-identity checks compare stdout only. */
CliResult
run_cli_stdout(const std::string &args)
{
    CliResult result;
    const std::string command =
        std::string(HELMSIM_PATH) + " " + args + " 2>/dev/null";
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return result;
    std::array<char, 4096> buffer;
    while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr)
        result.output += buffer.data();
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        result.exit_code = WEXITSTATUS(status);
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
    // Identical serving metrics, bit for bit, through the real binary.
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
        run_cli_stdout(std::string(kGrid) + " --jobs 1");
    const CliResult parallel =
        run_cli_stdout(std::string(kGrid) + " --jobs 4");
    ASSERT_EQ(sequential.exit_code, 0) << sequential.output;
    ASSERT_EQ(parallel.exit_code, 0) << parallel.output;
    EXPECT_NE(sequential.output.find("tokens_per_s"), std::string::npos);
    EXPECT_EQ(parallel.output, sequential.output);
}

TEST(Cli, SweepReportsTimingSummary)
{
    const CliResult result = run_cli(
        "sweep --dims \"model=OPT-1.3B;batch=1,2\" --jobs 2");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("swept 2 points in"),
              std::string::npos);
    EXPECT_NE(result.output.find("points/s"), std::string::npos);
    EXPECT_NE(result.output.find("jobs=2"), std::string::npos);
}

TEST(Cli, SweepReplaysCountInTheStepCache)
{
    // 9 points over 4 distinct specs: the 5 repeats replay from the
    // process step cache, and no second memo hides them from it.
    const std::string metrics = "/tmp/helm_cli_sweep_memo_metrics.json";
    const CliResult result = run_cli(
        "sweep --dims \"memory=NVDRAM,DRAM,NVDRAM;batch=1,8,1\" "
        "--jobs 4 --metrics-out " +
        metrics);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("cache 5 hits / 4 misses"),
              std::string::npos)
        << result.output;
    std::ifstream file(metrics);
    std::stringstream json;
    json << file.rdbuf();
    const std::string snapshot = json.str();
    EXPECT_NE(snapshot.find("{\"name\":\"helm_stepcache_hits\","
                            "\"type\":\"counter\",\"labels\":{\"stage\":"
                            "\"engine\"},\"value\":5}"),
              std::string::npos)
        << snapshot;
    EXPECT_NE(snapshot.find("{\"name\":\"helm_stepcache_misses\","
                            "\"type\":\"counter\",\"labels\":{\"stage\":"
                            "\"engine\"},\"value\":4}"),
              std::string::npos)
        << snapshot;
    // The sweep's only series are its own and the step cache's: no
    // other memo reports alongside it.
    const std::string name_key = "\"name\":\"";
    for (std::size_t at = snapshot.find(name_key); at != std::string::npos;
         at = snapshot.find(name_key, at + 1)) {
        const std::string name = snapshot.substr(
            at + name_key.size(),
            snapshot.find('"', at + name_key.size()) - at - name_key.size());
        EXPECT_TRUE(name.rfind("helm_stepcache_", 0) == 0 ||
                    name.rfind("helm_sweep_", 0) == 0)
            << name;
    }
    std::remove(metrics.c_str());
}

TEST(Cli, TuneJobsOutputIsByteIdentical)
{
    constexpr const char *kSearch =
        "tune --model OPT-1.3B --batch-limit 4";
    const CliResult sequential =
        run_cli_stdout(std::string(kSearch) + " --jobs 1");
    const CliResult parallel =
        run_cli_stdout(std::string(kSearch) + " --jobs 4");
    ASSERT_EQ(sequential.exit_code, 0) << sequential.output;
    ASSERT_EQ(parallel.exit_code, 0) << parallel.output;
    EXPECT_NE(sequential.output.find("best:"), std::string::npos);
    EXPECT_EQ(parallel.output, sequential.output);
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
    // The step cache is an engine memo: the gateway's delivery, and
    // with it the DES event count, must not depend on it.
    constexpr const char *kDrive = "gateway --requests 2000 --seed 7";
    const CliResult cached = run_cli_stdout(kDrive);
    const CliResult uncached =
        run_cli_stdout(std::string(kDrive) + " --no-step-cache");
    ASSERT_EQ(cached.exit_code, 0) << cached.output;
    ASSERT_EQ(uncached.exit_code, 0) << uncached.output;
    EXPECT_NE(cached.output.find("DES events"), std::string::npos);
    const std::string kept = without_host_rates(cached.output);
    EXPECT_EQ(std::count(cached.output.begin(), cached.output.end(),
                         '\n') -
                  std::count(kept.begin(), kept.end(), '\n'),
              2);
    EXPECT_EQ(without_host_rates(uncached.output), kept);
}

TEST(Cli, SchedulerKnobsRequireIterationScheduler)
{
    for (const char *cmd : {"serve", "cluster"}) {
        const CliResult result = run_cli(
            std::string(cmd) + " --model OPT-1.3B --deadline-ms 5000");
        EXPECT_EQ(result.exit_code, 2) << cmd;
        EXPECT_NE(result.output.find("--deadline-ms"),
                  std::string::npos)
            << cmd;
        EXPECT_NE(result.output.find("--scheduler"), std::string::npos)
            << cmd;
    }
    EXPECT_EQ(run_cli("serve --max-preemptions 2").exit_code, 2);
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
    const CliResult plain = run_cli_stdout(std::string("serve ") + kSmall);
    const CliResult fcfs = run_cli_stdout(
        std::string("serve --scheduler fcfs ") + kSmall);
    ASSERT_EQ(plain.exit_code, 0) << plain.output;
    ASSERT_EQ(fcfs.exit_code, 0) << fcfs.output;
    EXPECT_EQ(fcfs.output, plain.output);
    // No scheduler section leaks into fcfs output.
    EXPECT_EQ(plain.output.find("scheduler:"), std::string::npos);
}

TEST(Cli, EdfServePrintsSchedulerAndSwapSections)
{
    const CliResult result = run_cli_stdout(
        std::string("serve --scheduler edf --deadline-ms 20000 ") +
        kSmall);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("scheduler:"), std::string::npos);
    EXPECT_NE(result.output.find("edf"), std::string::npos);
    EXPECT_NE(result.output.find("kv swap"), std::string::npos);
    EXPECT_NE(result.output.find("deadlines:"), std::string::npos);
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
    const CliResult edf = run_cli_stdout(
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
    const CliResult fcfs = run_cli_stdout(base + "--trace " + fcfs_trace);
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
    CliResult result = run_cli_stdout(
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
    result = run_cli_stdout("run --model OPT-1.3B --cxl-gbps 64 --energy");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("J/token"), std::string::npos);
}

TEST(Cli, MembenchPicksItsHostLikeEveryCommand)
{
    // No host flag: Fig. 3's trio.
    CliResult result = run_cli_stdout("membench");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    for (const char *name : {"DRAM", "NVDRAM", "MemoryMode"})
        EXPECT_NE(result.output.find(name), std::string::npos) << name;

    result = run_cli_stdout("membench --memory CXL-ASIC");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("CXL-ASIC"), std::string::npos);
    EXPECT_EQ(result.output.find("NVDRAM"), std::string::npos);

    result = run_cli_stdout("membench --cxl-gbps 40");
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
    const CliResult result = run_cli_stdout(
        "run --model OPT-1.3B --memory NDP-DIMM "
        "--compute-site auto --placement All-CPU --batch 4");
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("near-data"), std::string::npos);
}

TEST(Cli, ZooSubcommandPrintsAFrontier)
{
    const CliResult result = run_cli_stdout(
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

} // namespace
