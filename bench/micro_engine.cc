/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: event
 * throughput of the DES kernel, fair-share channel updates, placement
 * algorithms, OPT-175B schedule compilation, a full OPT-175B serving
 * simulation (single-GPU runs take the executor's closed form), the
 * same schedule on the DES, and pipeline and tensor cluster batches.
 * Every row reports two counters per iteration: the water-fill passes
 * of the channels it ran and the batches the executor's closed form
 * timed.  These guard the library's own performance, not the paper's
 * results.
 */
#include <benchmark/benchmark.h>

#include <span>

#include "core/helm.h"

namespace {

using namespace helm;

/**
 * Report the counters every row carries, per iteration: @p fill_passes
 * water-fill passes of the channels the bench ran, and @p closed_form
 * batches the executor's closed form timed.  google-benchmark's CSV
 * output aborts on a row with a counter its header lacks, so a bench
 * that observes neither reports both as 0.
 */
void
report_counters(benchmark::State &state, std::uint64_t fill_passes = 0,
                std::uint64_t closed_form = 0)
{
    state.counters["fill_passes"] =
        benchmark::Counter(static_cast<double>(fill_passes),
                           benchmark::Counter::kAvgIterations);
    state.counters["closed_form"] =
        benchmark::Counter(static_cast<double>(closed_form),
                           benchmark::Counter::kAvgIterations);
}

void
BM_SimulatorEventThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        const int n = static_cast<int>(state.range(0));
        for (int i = 0; i < n; ++i)
            sim.schedule(static_cast<double>(i) * 1e-6, [] {});
        sim.run();
        benchmark::DoNotOptimize(sim.events_executed());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    report_counters(state);
}
BENCHMARK(BM_SimulatorEventThroughput)->Range(1024, 1 << 16);

void
BM_BandwidthChannelFlows(benchmark::State &state)
{
    std::uint64_t passes = 0;
    for (auto _ : state) {
        sim::Simulator sim;
        sim::BandwidthChannel ch(sim, Bandwidth::gb_per_s(25.0));
        const int n = static_cast<int>(state.range(0));
        int done = 0;
        for (int i = 0; i < n; ++i) {
            ch.start_flow(64 * kMiB + static_cast<Bytes>(i),
                          Bandwidth::gb_per_s(20.0),
                          [&done] { ++done; });
        }
        sim.run();
        benchmark::DoNotOptimize(done);
        passes += ch.fill_passes();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    report_counters(state, passes);
}
BENCHMARK(BM_BandwidthChannelFlows)->Range(8, 512);

/** The cluster pattern: pipeline stages put a whole token's layer loads
 *  on one shared host-read port at once, each capped by its source
 *  tier, so the port holds flows under three limits (two caps and
 *  uncapped) that arrive in staggered bursts. */
void
BM_BandwidthChannelMixedCapBursts(benchmark::State &state)
{
    const Bandwidth caps[] = {Bandwidth::gb_per_s(6.0),
                              Bandwidth::gb_per_s(12.0), Bandwidth()};
    const int n = static_cast<int>(state.range(0));
    const int bursts = 4;
    std::uint64_t passes = 0;
    for (auto _ : state) {
        sim::Simulator sim;
        sim::BandwidthChannel ch(sim, Bandwidth::gb_per_s(25.0));
        int done = 0;
        for (int b = 0; b < bursts; ++b) {
            sim.schedule(static_cast<double>(b) * 2e-3, [&, b] {
                for (int i = b; i < n; i += bursts) {
                    ch.start_flow(16 * kMiB + static_cast<Bytes>(i) * 4096,
                                  caps[i % 3], [&done] { ++done; });
                }
            });
        }
        sim.run();
        benchmark::DoNotOptimize(done);
        passes += ch.fill_passes();
    }
    state.SetItemsProcessed(state.iterations() * n);
    report_counters(state, passes);
}
BENCHMARK(BM_BandwidthChannelMixedCapBursts)->Range(8, 512);

void
BM_PlaceBaseline175B(benchmark::State &state)
{
    const auto layers = model::build_layers(
        model::opt_config(model::OptVariant::kOpt175B),
        model::DataType::kInt4Grouped);
    for (auto _ : state) {
        auto map = placement::place_baseline(
            layers, placement::Policy::host_offload());
        benchmark::DoNotOptimize(map.tier_total(placement::Tier::kGpu));
    }
    report_counters(state);
}
BENCHMARK(BM_PlaceBaseline175B);

void
BM_PlaceHelm175B(benchmark::State &state)
{
    const auto layers = model::build_layers(
        model::opt_config(model::OptVariant::kOpt175B),
        model::DataType::kInt4Grouped);
    for (auto _ : state) {
        auto map = placement::place_helm(
            layers, placement::Policy::host_offload());
        benchmark::DoNotOptimize(map.tier_total(placement::Tier::kGpu));
    }
    report_counters(state);
}
BENCHMARK(BM_PlaceHelm175B);

void
BM_BuildLayers175B(benchmark::State &state)
{
    const auto config = model::opt_config(model::OptVariant::kOpt175B);
    for (auto _ : state) {
        auto layers =
            model::build_layers(config, model::DataType::kInt4Grouped);
        benchmark::DoNotOptimize(layers.size());
    }
    report_counters(state);
}
BENCHMARK(BM_BuildLayers175B);

runtime::ServingSpec
inference_spec_175b(std::uint64_t batch)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kHelm;
    spec.compress_weights = true;
    spec.batch = batch;
    spec.repeats = 2;
    spec.keep_records = false;
    return spec;
}

/** Schedule compilation alone: model, placement, KV tiers and the
 *  layer and token rows, with no executor run. */
void
BM_CompileSchedule175B(benchmark::State &state)
{
    const runtime::ServingSpec spec =
        inference_spec_175b(static_cast<std::uint64_t>(state.range(0)));
    for (auto _ : state) {
        auto compiled = runtime::compile_schedule(spec);
        benchmark::DoNotOptimize(compiled.is_ok());
    }
    state.SetItemsProcessed(state.iterations());
    report_counters(state);
}
BENCHMARK(BM_CompileSchedule175B)->Arg(1)->Arg(8);

/** One cold engine run: compile, then the closed-form executor. */
void
BM_FullInference175B(benchmark::State &state)
{
    const runtime::ServingSpec spec =
        inference_spec_175b(static_cast<std::uint64_t>(state.range(0)));
    for (auto _ : state) {
        auto result = runtime::simulate_inference(spec);
        benchmark::DoNotOptimize(result.is_ok());
    }
    report_counters(state);
}
BENCHMARK(BM_FullInference175B)->Arg(1)->Arg(8);

/** The same schedule, compiled once, on a fresh fabric through the
 *  DES: the single-GPU event path the engine no longer takes. */
void
BM_DesInference175B(benchmark::State &state)
{
    const runtime::ServingSpec spec =
        inference_spec_175b(static_cast<std::uint64_t>(state.range(0)));
    const auto compiled = runtime::compile_schedule(spec);
    if (!compiled.is_ok()) {
        state.SkipWithError(compiled.status().to_string().c_str());
        return;
    }
    const runtime::FabricRates rates = runtime::link_rates(compiled->system);
    std::uint64_t passes = 0;
    for (auto _ : state) {
        runtime::Fabric fabric(1, spec.gpu, rates);
        runtime::Executor executor(fabric, std::span(&*compiled, 1));
        benchmark::DoNotOptimize(executor.run().is_ok());
        passes += fabric.fill_passes();
    }
    report_counters(state, passes);
}
BENCHMARK(BM_DesInference175B)->Arg(1)->Arg(8);

/** One cluster batch of OPT-175B int4 All-CPU on NVDRAM: compile the
 *  shards, then run them on a fresh fabric with shared host ports.
 *  Pipeline stages put a token's layer loads on their link and the
 *  read port at one instant; tensor shards load each step's slices in
 *  lockstep.  Args: {0 pipeline / 1 tensor, GPUs}. */
void
BM_ClusterBatch175B(benchmark::State &state)
{
    cluster::ClusterSpec spec;
    spec.serving.model = model::opt_config(model::OptVariant::kOpt175B);
    spec.serving.memory = mem::ConfigKind::kNvdram;
    spec.serving.placement = placement::PlacementKind::kAllCpu;
    spec.serving.compress_weights = true;
    spec.serving.keep_records = false;
    spec.parallelism = state.range(0) == 0 ? cluster::Parallelism::kPipeline
                                           : cluster::Parallelism::kTensor;
    spec.gpus = static_cast<std::uint64_t>(state.range(1));
    std::uint64_t passes = 0;
    std::uint64_t closed_form = 0;
    for (auto _ : state) {
        auto batch = cluster::run_cluster_batch(spec, spec.serving,
                                                /*keep_records=*/false);
        if (!batch.is_ok()) {
            state.SkipWithError(batch.status().to_string().c_str());
            return;
        }
        passes += batch->fill_passes;
        closed_form += batch->closed_form ? 1 : 0;
    }
    state.SetItemsProcessed(state.iterations());
    report_counters(state, passes, closed_form);
}
BENCHMARK(BM_ClusterBatch175B)
    ->ArgNames({"tensor", "gpus"})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({1, 2})
    ->Args({1, 4});

void
BM_MaxBatchSearch(benchmark::State &state)
{
    const auto config = model::opt_config(model::OptVariant::kOpt175B);
    const auto layers =
        model::build_layers(config, model::DataType::kInt4Grouped);
    const auto gpu = gpu::GpuSpec::a100_40gb();
    model::SequenceShape shape;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runtime::max_batch(gpu, config, layers, 0, shape, true));
    }
    report_counters(state);
}
BENCHMARK(BM_MaxBatchSearch);

void
BM_MembenchSweep(benchmark::State &state)
{
    for (auto _ : state) {
        auto results = membench::sweep({mem::ConfigKind::kNvdram},
                                       {256 * kMiB, kGiB, 4 * kGiB});
        benchmark::DoNotOptimize(results.size());
    }
    report_counters(state);
}
BENCHMARK(BM_MembenchSweep);

} // namespace

BENCHMARK_MAIN();
