/**
 * @file
 * Unit + integration tests for the multi-GPU cluster subsystem:
 * spec parsing/validation, layer partitioning, the replica Router,
 * single-GPU degeneracy (the N=1 cluster must reproduce the
 * single-GPU engine and Server bit-for-bit), shared-port saturation
 * scaling, and the sharded execution modes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "cluster/cluster_engine.h"
#include "cluster/cluster_server.h"
#include "cluster/router.h"
#include "model/opt.h"
#include "runtime/engine.h"
#include "runtime/schedule.h"

namespace helm::cluster {
namespace {

using model::OptVariant;

runtime::ServingSpec
small_spec(mem::ConfigKind memory = mem::ConfigKind::kNvdram)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = memory;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.keep_records = false;
    return spec;
}

/** small_spec() on the NDP-DIMM host, offloading decode FFNs near-data.
 *  Compressed weights shorten the h2d loads enough that the offloaded
 *  steps' own timing reaches the makespan. */
runtime::ServingSpec
ndp_spec()
{
    runtime::ServingSpec spec = small_spec();
    spec.compress_weights = true;
    spec.memory = "NDP-DIMM";
    spec.compute_site = placement::ComputeSiteMode::kNdpAuto;
    return spec;
}

ClusterSpec
cluster_spec(std::uint64_t gpus, Parallelism mode,
             mem::ConfigKind memory = mem::ConfigKind::kNvdram)
{
    ClusterSpec spec;
    spec.serving = small_spec(memory);
    spec.gpus = gpus;
    spec.parallelism = mode;
    return spec;
}

std::vector<workload::TimedRequest>
burst(std::uint64_t n, Seconds arrival, std::uint64_t first_id = 0)
{
    std::vector<workload::TimedRequest> stream;
    for (std::uint64_t i = 0; i < n; ++i) {
        stream.push_back(workload::TimedRequest{
            workload::Request{first_id + i, 128, 21}, arrival});
    }
    return stream;
}

// ---- Parsing / naming -------------------------------------------------

TEST(ClusterSpecTest, ParseRoundTrips)
{
    EXPECT_EQ(*parse_parallelism("replica"), Parallelism::kReplica);
    EXPECT_EQ(*parse_parallelism("data"), Parallelism::kReplica);
    EXPECT_EQ(*parse_parallelism("pipeline"), Parallelism::kPipeline);
    EXPECT_EQ(*parse_parallelism("pp"), Parallelism::kPipeline);
    EXPECT_EQ(*parse_parallelism("tensor"), Parallelism::kTensor);
    EXPECT_EQ(*parse_parallelism("tp"), Parallelism::kTensor);
    EXPECT_EQ(parse_parallelism("bogus").status().code(),
              StatusCode::kInvalidArgument);

    EXPECT_EQ(*parse_router_policy("rr"), RouterPolicy::kRoundRobin);
    EXPECT_EQ(*parse_router_policy("jsq"),
              RouterPolicy::kJoinShortestQueue);
    EXPECT_EQ(*parse_router_policy("po2"), RouterPolicy::kPowerOfTwo);
    EXPECT_EQ(parse_router_policy("lifo").status().code(),
              StatusCode::kInvalidArgument);

    EXPECT_STREQ(parallelism_name(Parallelism::kTensor), "tensor");
    EXPECT_STREQ(router_policy_name(RouterPolicy::kPowerOfTwo), "po2");
}

TEST(ClusterSpecTest, ValidateRejectsBadShapes)
{
    ClusterSpec zero = cluster_spec(0, Parallelism::kReplica);
    EXPECT_EQ(zero.validate().code(), StatusCode::kInvalidArgument);

    ClusterSpec many = cluster_spec(65, Parallelism::kReplica);
    EXPECT_EQ(many.validate().code(), StatusCode::kInvalidArgument);

    ClusterSpec no_sockets = cluster_spec(2, Parallelism::kReplica);
    no_sockets.sockets = 0;
    EXPECT_EQ(no_sockets.validate().code(),
              StatusCode::kInvalidArgument);

    // More pipeline stages than model layers cannot partition.
    ClusterSpec deep = cluster_spec(64, Parallelism::kPipeline);
    deep.serving.model.blocks = 1; // num_layers() = 4 < 64 stages
    EXPECT_EQ(deep.validate().code(), StatusCode::kInvalidArgument);

    EXPECT_TRUE(cluster_spec(4, Parallelism::kTensor).validate().is_ok());
}

TEST(ClusterSpecTest, IterationSchedulersNeedTheSingleGpuPath)
{
    runtime::ServingConfig edf;
    edf.scheduler = runtime::SchedulerKind::kEdf;

    ClusterSpec two = cluster_spec(2, Parallelism::kReplica);
    two.config = edf;
    const Status rejected = two.validate();
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.to_string().find("--scheduler"),
              std::string::npos);
    EXPECT_NE(rejected.to_string().find("edf"), std::string::npos);

    ClusterSpec sharded = cluster_spec(1, Parallelism::kTensor);
    sharded.config = edf;
    EXPECT_EQ(sharded.validate().code(), StatusCode::kInvalidArgument);

    ClusterSpec ok = cluster_spec(1, Parallelism::kReplica);
    ok.config = edf;
    EXPECT_TRUE(ok.validate().is_ok());

    // The fcfs config keeps every multi-GPU mode available.
    ClusterSpec fcfs = cluster_spec(4, Parallelism::kTensor);
    fcfs.config = runtime::ServingConfig{};
    EXPECT_TRUE(fcfs.validate().is_ok());
}

TEST(ClusterSpecTest, DefaultConfigIsTheHistoricalFcfs)
{
    // An untouched ClusterSpec serves fcfs under the historical knob
    // defaults, exactly as Server::create(spec) does.
    const runtime::ServingConfig config = ClusterSpec{}.config;
    EXPECT_EQ(config.scheduler, runtime::SchedulerKind::kFcfs);
    EXPECT_TRUE(config.auto_max_batch);
    EXPECT_DOUBLE_EQ(config.max_queue_delay, 0.5);
    EXPECT_EQ(config.max_queue_length, 1024u);
    EXPECT_FALSE(config.enforce_ttft);
    EXPECT_FALSE(config.enforce_e2e);
    EXPECT_TRUE(cluster_spec(2, Parallelism::kReplica).validate().is_ok());
}

TEST(ClusterDegeneracy, EdfClusterMatchesServerThroughTheBackendSeam)
{
    // The one-GPU replica cluster must reproduce Server under the
    // iteration-level schedulers too, preemptions included.
    runtime::ServingConfig edf;
    edf.scheduler = runtime::SchedulerKind::kEdf;
    edf.auto_max_batch = false;
    edf.max_batch = 2;
    edf.tenants = 2;

    std::vector<workload::TimedRequest> stream;
    const auto add = [&stream](double at, std::uint64_t prompt,
                               std::uint64_t output,
                               std::uint64_t tenant, double deadline) {
        workload::TimedRequest timed;
        timed.request = workload::Request{
            static_cast<std::uint64_t>(stream.size()), prompt, output,
            tenant};
        timed.arrival = at;
        timed.deadline = deadline;
        stream.push_back(timed);
    };
    add(0.0, 256, 64, 0, 1000.0);
    add(0.0, 256, 64, 0, 1000.0);
    add(0.1, 256, 64, 0, 1000.0);
    add(5.0, 64, 8, 1, 9.0);

    auto server = runtime::Server::create(small_spec(), edf);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    ASSERT_TRUE(server->submit(stream).is_ok());
    const auto want = server->serve();
    ASSERT_TRUE(want.is_ok());

    ClusterSpec spec = cluster_spec(1, Parallelism::kReplica);
    spec.config = edf;
    auto cluster = ClusterServer::create(spec);
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    ASSERT_TRUE(cluster->submit(stream).is_ok());
    const auto got = cluster->serve();
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();

    EXPECT_GE(want->preemptions, 1u);
    EXPECT_EQ(got->preemptions, want->preemptions);
    EXPECT_EQ(got->resumes, want->resumes);
    EXPECT_EQ(got->kv_demoted_bytes, want->kv_demoted_bytes);
    EXPECT_EQ(got->kv_promoted_bytes, want->kv_promoted_bytes);
    EXPECT_EQ(got->iterations, want->iterations);
    EXPECT_EQ(got->completed, want->completed);
    EXPECT_EQ(got->makespan, want->makespan);
    EXPECT_EQ(got->total_tokens, want->total_tokens);
}

// ---- Layer partitioning ----------------------------------------------

TEST(PartitionLayersTest, CoversAllLayersContiguously)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt13B), model::DataType::kFp16);
    for (std::uint64_t stages : {1u, 2u, 3u, 4u, 7u}) {
        auto ranges = partition_layers(layers, stages);
        ASSERT_TRUE(ranges.is_ok());
        ASSERT_EQ(ranges->size(), stages);
        EXPECT_EQ(ranges->front().first, 0u);
        EXPECT_EQ(ranges->back().second, layers.size());
        for (std::size_t s = 0; s < stages; ++s) {
            EXPECT_LT((*ranges)[s].first, (*ranges)[s].second);
            if (s > 0)
                EXPECT_EQ((*ranges)[s].first, (*ranges)[s - 1].second);
        }
    }
}

TEST(PartitionLayersTest, BalancesStoredBytes)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt13B), model::DataType::kFp16);
    auto ranges = partition_layers(layers, 4);
    ASSERT_TRUE(ranges.is_ok());
    std::vector<double> stage_bytes(4, 0.0);
    double total = 0.0;
    for (std::size_t s = 0; s < 4; ++s) {
        for (auto l = (*ranges)[s].first; l < (*ranges)[s].second; ++l) {
            for (const auto &w : layers[l].weights)
                stage_bytes[s] += static_cast<double>(w.bytes());
        }
        total += stage_bytes[s];
    }
    for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_GT(stage_bytes[s], 0.10 * total / 4.0);
        EXPECT_LT(stage_bytes[s], 2.50 * total / 4.0);
    }
}

TEST(PartitionLayersTest, MoreStagesThanLayersFails)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt1_3B), model::DataType::kFp16);
    EXPECT_EQ(partition_layers(layers, layers.size() + 1).status().code(),
              StatusCode::kInvalidArgument);
}

// ---- Router -----------------------------------------------------------

TEST(RouterTest, RoundRobinCycles)
{
    Router router(RouterPolicy::kRoundRobin, 3, 1);
    const std::vector<std::uint64_t> depths{5, 0, 9};
    EXPECT_EQ(router.route(depths), 0u);
    EXPECT_EQ(router.route(depths), 1u);
    EXPECT_EQ(router.route(depths), 2u);
    EXPECT_EQ(router.route(depths), 0u);
}

TEST(RouterTest, JsqPicksLeastLoadedLowestIndex)
{
    Router router(RouterPolicy::kJoinShortestQueue, 4, 1);
    EXPECT_EQ(router.route({3, 1, 1, 2}), 1u); // tie -> lowest index
    EXPECT_EQ(router.route({0, 1, 1, 2}), 0u);
}

TEST(RouterTest, PowerOfTwoIsDeterministicAndNeverPicksDeeperGpu)
{
    Router a(RouterPolicy::kPowerOfTwo, 8, 42);
    Router b(RouterPolicy::kPowerOfTwo, 8, 42);
    std::vector<std::uint64_t> depths{9, 3, 7, 1, 8, 2, 6, 4};
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t choice = a.route(depths);
        EXPECT_EQ(choice, b.route(depths)); // same seed, same stream
        ASSERT_LT(choice, depths.size());
        depths[choice]++;
    }
    // Sampling two GPUs and keeping the shallower one must beat
    // blind uniform assignment: the deepest queue cannot run away.
    const auto minmax = std::minmax_element(depths.begin(), depths.end());
    EXPECT_LE(*minmax.second - *minmax.first, 10u);
}

TEST(RouterTest, SingleGpuAlwaysZero)
{
    Router router(RouterPolicy::kPowerOfTwo, 1, 7);
    EXPECT_EQ(router.route({123}), 0u);
}

// ---- Single-GPU degeneracy -------------------------------------------

TEST(ClusterDegeneracy, SaturatedReplicaOneGpuMatchesEngineExactly)
{
    for (runtime::ServingSpec spec :
         {small_spec(mem::ConfigKind::kNvdram),
          small_spec(mem::ConfigKind::kDram), ndp_spec()}) {
        const std::string label = spec.memory.name();
        spec.batch = 4;
        spec.repeats = 2;
        auto single = runtime::simulate_inference(spec);
        ASSERT_TRUE(single.is_ok()) << single.status().to_string();
        if (spec.compute_site != placement::ComputeSiteMode::kGpuOnly) {
            EXPECT_GT(single->ndp_steps, 0u);
        }

        ClusterSpec cs;
        cs.serving = spec;
        cs.gpus = 1;
        cs.parallelism = Parallelism::kReplica;
        auto clustered = run_saturated(cs);
        ASSERT_TRUE(clustered.is_ok()) << clustered.status().to_string();

        // Shared ports have slack at N=1, so the DES timings must be
        // bit-for-bit the single-GPU engine's.
        EXPECT_EQ(clustered->ttft, single->metrics.ttft) << label;
        EXPECT_EQ(clustered->tbt, single->metrics.tbt);
        EXPECT_EQ(clustered->makespan, single->metrics.total_time);
        EXPECT_EQ(clustered->total_tokens, single->metrics.total_tokens);
        EXPECT_EQ(clustered->aggregate_throughput,
                  single->metrics.throughput);
    }
}

TEST(ClusterDegeneracy, ServerDelegationIsFieldExact)
{
    auto server = runtime::Server::create(small_spec());
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(12, 0.0)).is_ok());
    auto want = server->serve();
    ASSERT_TRUE(want.is_ok());

    auto cluster =
        ClusterServer::create(cluster_spec(1, Parallelism::kReplica));
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    EXPECT_EQ(cluster->effective_max_batch(),
              server->effective_max_batch());
    ASSERT_TRUE(cluster->submit(burst(12, 0.0)).is_ok());
    auto got = cluster->run();
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();

    const runtime::ServingReport &a = *want;
    const runtime::ServingReport &b = got->serving;
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.batches_formed, b.batches_formed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.total_tokens, b.total_tokens);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].ttft, b.requests[i].ttft);
        EXPECT_EQ(a.requests[i].tbt, b.requests[i].tbt);
        EXPECT_EQ(a.requests[i].e2e_latency, b.requests[i].e2e_latency);
        EXPECT_EQ(a.requests[i].queueing_delay,
                  b.requests[i].queueing_delay);
    }
    ASSERT_EQ(got->gpus.size(), 1u);
    EXPECT_EQ(got->gpus[0].requests, b.completed);
}

// ---- Near-data compute sites -----------------------------------------

TEST(ClusterNdp, NearDataStepsRunOnTheHostNotTheGpus)
{
    // The NDP units belong to the host memory: offloaded decode steps
    // must neither occupy a GPU's compute stream nor pay its launch
    // overhead, in replica and tensor mode alike.  The GPU-only run of
    // the same NDP-DIMM spec puts every step on the GPUs.
    for (const Parallelism mode :
         {Parallelism::kReplica, Parallelism::kTensor}) {
        ClusterSpec ndp;
        ndp.serving = ndp_spec();
        ndp.serving.batch = 4;
        ndp.serving.repeats = 2;
        ndp.gpus = 2;
        ndp.parallelism = mode;
        ClusterSpec gpu_only = ndp;
        gpu_only.serving.compute_site = placement::ComputeSiteMode::kGpuOnly;

        auto ndp_run = run_saturated(ndp);
        auto gpu_run = run_saturated(gpu_only);
        ASSERT_TRUE(ndp_run.is_ok()) << ndp_run.status().to_string();
        ASSERT_TRUE(gpu_run.is_ok()) << gpu_run.status().to_string();
        ASSERT_EQ(ndp_run->gpus.size(), 2u);

        const Seconds overhead = ndp.serving.gpu.layer_overhead;
        for (std::uint64_t g = 0; g < 2; ++g) {
            runtime::ShardOptions shard;
            if (mode == Parallelism::kTensor) {
                shard.kind = runtime::ShardOptions::Kind::kTensor;
                shard.count = 2;
                shard.index = g;
            }
            auto compiled = runtime::compile_schedule(ndp.serving, shard);
            ASSERT_TRUE(compiled.is_ok());
            Seconds gpu_busy = 0.0;
            Bytes h2d = 0;
            std::uint64_t offloaded = 0;
            for (const runtime::ScheduledStep &step : compiled->steps) {
                h2d += step.cpu_bytes + step.disk_bytes +
                       compiled->kv_read_bytes(step);
                if (step.site == placement::ComputeSite::kNdp)
                    ++offloaded;
                else
                    gpu_busy += step.compute + overhead;
            }
            ASSERT_GT(offloaded, 0u) << parallelism_name(mode);

            const GpuUtilization &u = ndp_run->gpus[g];
            EXPECT_NEAR(u.compute_busy, gpu_busy, 1e-9 * gpu_busy)
                << parallelism_name(mode) << " gpu " << g;
            EXPECT_EQ(u.h2d_bytes, h2d);
            EXPECT_LT(u.compute_busy, gpu_run->gpus[g].compute_busy);
            EXPECT_LT(u.h2d_bytes, gpu_run->gpus[g].h2d_bytes);
        }
    }
}

TEST(ClusterNdp, PipelineRejectsNearDataSitesInOneLine)
{
    // Pipeline stages run per-token work units that put every layer on
    // the GPU, so a near-data compute site cannot be honoured there.
    ClusterSpec spec;
    spec.serving = ndp_spec();
    spec.gpus = 2;
    spec.parallelism = Parallelism::kPipeline;

    const Status status = spec.validate();
    ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
    const std::string text = status.to_string();
    EXPECT_NE(text.find("pipeline"), std::string::npos) << text;
    EXPECT_NE(text.find("'auto'"), std::string::npos) << text;
    EXPECT_EQ(text.find('\n'), std::string::npos) << text;
    EXPECT_EQ(run_saturated(spec).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ClusterServer::create(spec).status().code(),
              StatusCode::kInvalidArgument);
}

// ---- Shared-port contention ------------------------------------------

TEST(ClusterScaling, DramScalesNearLinearlyNvdramSaturates)
{
    auto throughput = [](mem::ConfigKind memory, std::uint64_t gpus) {
        ClusterSpec spec = cluster_spec(gpus, Parallelism::kReplica,
                                        memory);
        spec.serving.batch = 4;
        spec.serving.repeats = 2;
        auto result = run_saturated(spec);
        EXPECT_TRUE(result.is_ok()) << result.status().to_string();
        return result->aggregate_throughput;
    };

    const double dram1 = throughput(mem::ConfigKind::kDram, 1);
    const double dram4 = throughput(mem::ConfigKind::kDram, 4);
    const double nv1 = throughput(mem::ConfigKind::kNvdram, 1);
    const double nv4 = throughput(mem::ConfigKind::kNvdram, 4);

    // DRAM's pooled read port has headroom for 4 PCIe links; Optane's
    // streaming ceiling binds cluster-wide (Fig. 3, one level up).
    EXPECT_GT(dram4, 3.3 * dram1);
    EXPECT_LT(nv4, 3.0 * nv1);
    EXPECT_GT(nv4, 1.5 * nv1); // contended, not serialized
    EXPECT_LT(nv4 / nv1, dram4 / dram1);
}

TEST(ClusterScaling, PortUtilizationReportsSaturation)
{
    ClusterSpec spec = cluster_spec(4, Parallelism::kReplica);
    spec.serving.batch = 4;
    auto result = run_saturated(spec);
    ASSERT_TRUE(result.is_ok());
    const auto read = std::find_if(
        result->ports.begin(), result->ports.end(),
        [](const PortStats &p) { return p.name == "host-read"; });
    ASSERT_NE(read, result->ports.end());
    EXPECT_GT(read->utilization, 0.80); // the binding resource
    EXPECT_LE(read->utilization, 1.0 + 1e-9);
    ASSERT_EQ(result->gpus.size(), 4u);
    for (const GpuUtilization &g : result->gpus) {
        EXPECT_GT(g.h2d_bytes, 0u);
        EXPECT_GT(g.compute_busy, 0.0);
    }
}

// ---- Sharded modes ----------------------------------------------------

TEST(ClusterSharded, TensorModeSplitsTrafficAndCompletes)
{
    ClusterSpec spec = cluster_spec(2, Parallelism::kTensor);
    spec.serving.batch = 4;
    spec.serving.repeats = 2;
    auto sharded = run_saturated(spec, /*keep_records=*/true);
    ASSERT_TRUE(sharded.is_ok()) << sharded.status().to_string();

    runtime::ServingSpec single = small_spec();
    single.batch = 4;
    single.repeats = 2;
    auto base = runtime::simulate_inference(single);
    ASSERT_TRUE(base.is_ok());

    EXPECT_EQ(sharded->total_tokens, base->metrics.total_tokens);
    EXPECT_GT(sharded->makespan, 0.0);
    // Each GPU streams roughly half the weights; strictly less than
    // the whole model's traffic, and both links carry traffic.
    ASSERT_EQ(sharded->gpus.size(), 2u);
    for (const GpuUtilization &g : sharded->gpus) {
        EXPECT_GT(g.h2d_bytes, 0u);
        EXPECT_LT(g.h2d_bytes, base->metrics.total_tokens * kGB); // sane
    }
    std::set<std::uint64_t> gpu_rows;
    for (const auto &rec : sharded->records)
        gpu_rows.insert(rec.gpu_index);
    EXPECT_EQ(gpu_rows.size(), 2u);
}

TEST(ClusterSharded, PipelineModeCompletesAllTokens)
{
    ClusterSpec spec = cluster_spec(2, Parallelism::kPipeline);
    spec.serving.batch = 4;
    spec.serving.repeats = 1;
    auto result = run_saturated(spec, /*keep_records=*/true);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->total_tokens,
              4 * spec.serving.shape.output_tokens);
    EXPECT_GT(result->ttft, 0.0);
    EXPECT_GT(result->tbt, 0.0);
    std::set<std::uint64_t> gpu_rows;
    for (const auto &rec : result->records)
        gpu_rows.insert(rec.gpu_index);
    EXPECT_EQ(gpu_rows.size(), 2u);
}

// ---- Replica serving across GPUs -------------------------------------

TEST(ClusterServing, ReplicaClusterServesBurstAcrossGpus)
{
    for (const auto policy :
         {RouterPolicy::kRoundRobin, RouterPolicy::kJoinShortestQueue,
          RouterPolicy::kPowerOfTwo}) {
        ClusterSpec spec = cluster_spec(2, Parallelism::kReplica);
        spec.router = policy;
        auto cluster = ClusterServer::create(spec);
        ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
        ASSERT_TRUE(cluster->submit(burst(16, 0.0)).is_ok());
        auto report = cluster->run();
        ASSERT_TRUE(report.is_ok()) << report.status().to_string();
        EXPECT_EQ(report->serving.completed, 16u);
        EXPECT_EQ(report->serving.rejected, 0u);
        EXPECT_GT(report->serving.throughput, 0.0);
        ASSERT_EQ(report->gpus.size(), 2u);
        std::uint64_t served = 0;
        for (const GpuUtilization &g : report->gpus) {
            EXPECT_GT(g.requests, 0u)
                << "router " << router_policy_name(policy)
                << " starved GPU " << g.gpu;
            served += g.requests;
        }
        EXPECT_EQ(served, 16u);
    }
}

TEST(ClusterServing, TwoReplicasBeatOneUnderLoad)
{
    auto serve = [](std::uint64_t gpus) {
        ClusterSpec spec = cluster_spec(gpus, Parallelism::kReplica);
        auto cluster = ClusterServer::create(spec);
        EXPECT_TRUE(cluster.is_ok());
        EXPECT_TRUE(cluster->submit(burst(24, 0.0)).is_ok());
        auto report = cluster->run();
        EXPECT_TRUE(report.is_ok());
        return report->serving;
    };
    const runtime::ServingReport one = serve(1);
    const runtime::ServingReport two = serve(2);
    EXPECT_EQ(two.completed, one.completed);
    EXPECT_LT(two.makespan, one.makespan);
    EXPECT_GT(two.throughput, one.throughput);
}

TEST(ClusterServing, ShardedServingReportsRequests)
{
    ClusterSpec spec = cluster_spec(2, Parallelism::kTensor);
    auto cluster = ClusterServer::create(spec);
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    ASSERT_TRUE(cluster->submit(burst(8, 0.0)).is_ok());
    auto report = cluster->run();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report->serving.completed, 8u);
    EXPECT_GT(report->serving.throughput, 0.0);
    for (const auto &r : report->serving.requests) {
        EXPECT_GT(r.ttft, 0.0);
        EXPECT_GE(r.e2e_latency, r.ttft);
    }
    ASSERT_EQ(report->gpus.size(), 2u);
    EXPECT_GT(report->gpus[0].utilization, 0.0);
    ASSERT_FALSE(report->ports.empty());
}

TEST(ClusterServing, FcfsReportsCarryTenantAndDeadline)
{
    // Two tenants, every third request with a deadline no batch can
    // meet, the rest with one every batch meets, and some with none.
    std::vector<workload::TimedRequest> stream;
    for (std::uint64_t i = 0; i < 12; ++i) {
        workload::TimedRequest timed;
        timed.request = workload::Request{i, 128, 21, i % 2};
        timed.arrival = 0.25 * static_cast<double>(i);
        if (i % 3 == 0)
            timed.deadline = timed.arrival + 1e-3;
        else if (i % 3 == 1)
            timed.deadline = timed.arrival + 1e4;
        stream.push_back(timed);
    }
    for (const Parallelism mode :
         {Parallelism::kReplica, Parallelism::kTensor}) {
        auto cluster = ClusterServer::create(cluster_spec(2, mode));
        ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
        ASSERT_TRUE(cluster->submit(stream).is_ok());
        const auto report = cluster->serve();
        ASSERT_TRUE(report.is_ok()) << report.status().to_string();
        ASSERT_EQ(report->requests.size(), stream.size())
            << parallelism_name(mode);
        std::uint64_t met = 0;
        std::uint64_t missed = 0;
        for (const runtime::RequestMetrics &r : report->requests) {
            const workload::TimedRequest &want = stream[r.id];
            EXPECT_EQ(r.tenant, want.request.tenant)
                << parallelism_name(mode) << " request " << r.id;
            EXPECT_EQ(r.deadline, want.deadline)
                << parallelism_name(mode) << " request " << r.id;
            const bool expect_met =
                want.deadline == 0.0 ||
                r.e2e_latency <= want.deadline - want.arrival;
            EXPECT_EQ(r.deadline_met, expect_met)
                << parallelism_name(mode) << " request " << r.id;
            if (want.deadline != 0.0)
                ++(r.deadline_met ? met : missed);
        }
        EXPECT_EQ(met, 4u) << parallelism_name(mode);
        EXPECT_EQ(missed, 4u) << parallelism_name(mode);
    }
}

TEST(ClusterServing, ManagedKvAdmissionIsTheWeakestShard)
{
    // A fixed 16-block GPU tier over a 24-block host tier, in blocks of
    // the full model: a paper-shape request (149 padded tokens = 10
    // blocks) fits every shard, a 2048-token prompt fits none.
    runtime::ServingSpec serving = small_spec();
    const Bytes block_bytes = 16 *
                              model::kv_bytes_per_block(serving.model, 1) *
                              serving.model.blocks;
    kvcache::KvCacheConfig kv = kvcache::KvCacheConfig::tiered(
        24 * block_bytes);
    kv.tiers[0].auto_capacity = false;
    kv.tiers[0].capacity = 16 * block_bytes;
    serving.kv_cache = kv;

    std::vector<workload::TimedRequest> stream = burst(4, 0.0, 1);
    stream.insert(stream.begin(),
                  workload::TimedRequest{workload::Request{0, 2048, 21},
                                         0.0});

    auto single = runtime::Server::create(serving);
    ASSERT_TRUE(single.is_ok()) << single.status().to_string();
    ASSERT_TRUE(single->submit(stream).is_ok());
    const auto want = single->serve();
    ASSERT_TRUE(want.is_ok()) << want.status().to_string();
    ASSERT_EQ(want->kv_rejected, 1u);

    const std::map<Parallelism, std::pair<std::uint64_t, std::uint64_t>>
        pinned = {{Parallelism::kReplica, {4, 4}},
                  {Parallelism::kTensor, {8, 8}},
                  {Parallelism::kPipeline, {8, 8}}};
    for (const auto &[mode, pin] : pinned) {
        ClusterSpec spec = cluster_spec(2, mode);
        spec.serving = serving;
        auto cluster = ClusterServer::create(spec);
        ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();

        // The bounds in force are the minimum over the shards.
        auto plan = shard_plan(spec);
        ASSERT_TRUE(plan.is_ok());
        std::uint64_t ceiling = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t slots = ceiling;
        for (const runtime::ShardOptions &shard : *plan) {
            auto geo = runtime::shard_geometry(spec.serving, shard);
            ASSERT_TRUE(geo.is_ok());
            auto adm = runtime::size_admission(spec.serving, spec.config,
                                               geo->kv_model, geo->layers);
            ASSERT_TRUE(adm.is_ok()) << adm.status().to_string();
            ceiling = std::min(ceiling, adm->ceiling);
            slots = std::min(slots, adm->kv_request_slots);
        }
        EXPECT_EQ(cluster->effective_max_batch(), ceiling)
            << parallelism_name(mode);
        EXPECT_EQ(cluster->kv_request_slots(), slots)
            << parallelism_name(mode);
        EXPECT_EQ(cluster->effective_max_batch(), pin.first)
            << parallelism_name(mode);
        EXPECT_EQ(cluster->kv_request_slots(), pin.second)
            << parallelism_name(mode);
        if (mode == Parallelism::kReplica) {
            EXPECT_EQ(cluster->kv_request_slots(),
                      single->kv_request_slots());
        }

        // The prompt no tier can hold is shed as Server sheds it.
        ASSERT_TRUE(cluster->submit(stream).is_ok());
        const auto report = cluster->serve();
        ASSERT_TRUE(report.is_ok()) << report.status().to_string();
        EXPECT_EQ(report->kv_rejected, want->kv_rejected)
            << parallelism_name(mode);
        EXPECT_EQ(report->rejected_ids, want->rejected_ids)
            << parallelism_name(mode);
        EXPECT_EQ(report->completed, 4u) << parallelism_name(mode);
    }
}

} // namespace
} // namespace helm::cluster
