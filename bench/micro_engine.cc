/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: event
 * throughput of the DES kernel, fair-share channel updates, placement
 * algorithms, a full OPT-175B serving simulation (single-GPU runs take
 * the executor's closed form), and the same schedule on the DES.  These
 * guard the library's own performance, not the paper's results.
 */
#include <benchmark/benchmark.h>

#include <span>

#include "core/helm.h"

namespace {

using namespace helm;

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
}
BENCHMARK(BM_SimulatorEventThroughput)->Range(1024, 1 << 16);

void
BM_BandwidthChannelFlows(benchmark::State &state)
{
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
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BandwidthChannelFlows)->Range(8, 512);

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
    for (auto _ : state) {
        runtime::Fabric fabric(1, spec.gpu, rates);
        runtime::Executor executor(fabric, std::span(&*compiled, 1));
        benchmark::DoNotOptimize(executor.run().is_ok());
    }
}
BENCHMARK(BM_DesInference175B)->Arg(1)->Arg(8);

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
}
BENCHMARK(BM_MembenchSweep);

} // namespace

BENCHMARK_MAIN();
