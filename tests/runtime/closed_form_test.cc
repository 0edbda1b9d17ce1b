/**
 * @file
 * The executor's closed form against its DES, bit for bit.
 *
 * Seeded draws over zoo models, every registered host (plus a custom
 * CXL rate), placements, batch shapes, int4 and NDP compute sites each
 * run one executor through run_closed_form() and a fresh fabric plus
 * executor through run(); every token end time, every per-step record
 * field and every GPU and port statistic must match to the bit pattern.
 * Lockstep draws do the same for G tensor shards on a G-GPU fabric
 * whose shared read port runs below, at or above what G slices could
 * use, with equal and unequal slices, and late in a long run.  Boundary
 * cases pin the eligibility rule: disk flows, managed KV flows, GPUs no
 * shard runs on and near-data layers on several GPUs decline, leaving
 * the DES to run them.  Loads whose first completion leaves a round-off
 * remainder — re-armed without advancing the clock, or advancing it —
 * take the closed form and still match.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "common/rng.h"
#include "mem/registry.h"
#include "model/footprint.h"
#include "model/opt.h"
#include "model/zoo.h"
#include "runtime/engine.h"
#include "runtime/executor.h"
#include "runtime/schedule.h"

namespace helm::runtime {
namespace {

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** Bit-pattern equality of every LayerStepRecord field. */
void
expect_same_records(const std::vector<LayerStepRecord> &a,
                    const std::vector<LayerStepRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const LayerStepRecord &x = a[i];
        const LayerStepRecord &y = b[i];
        SCOPED_TRACE("record " + std::to_string(i));
        ASSERT_EQ(x.gpu_index, y.gpu_index);
        ASSERT_EQ(x.batch_index, y.batch_index);
        ASSERT_EQ(x.token, y.token);
        ASSERT_EQ(x.layer, y.layer);
        ASSERT_EQ(x.type, y.type);
        ASSERT_EQ(x.stage, y.stage);
        ASSERT_EQ(bits(x.compute_time), bits(y.compute_time));
        ASSERT_EQ(bits(x.transfer_time), bits(y.transfer_time));
        ASSERT_EQ(x.transfer_bytes, y.transfer_bytes);
        ASSERT_EQ(x.host_bytes, y.host_bytes);
        ASSERT_EQ(x.disk_bytes, y.disk_bytes);
        ASSERT_EQ(x.kv_read_bytes, y.kv_read_bytes);
        ASSERT_EQ(x.kv_write_bytes, y.kv_write_bytes);
        ASSERT_EQ(bits(x.transfer_start), bits(y.transfer_start));
        ASSERT_EQ(bits(x.step_start), bits(y.step_start));
        ASSERT_EQ(bits(x.step_end), bits(y.step_end));
        ASSERT_EQ(bits(x.kv_write_time), bits(y.kv_write_time));
        ASSERT_EQ(bits(x.kv_stall_time), bits(y.kv_stall_time));
        ASSERT_EQ(x.kv_tiers.size(), y.kv_tiers.size());
        for (std::size_t t = 0; t < x.kv_tiers.size(); ++t) {
            ASSERT_EQ(x.kv_tiers[t].tier, y.kv_tiers[t].tier);
            ASSERT_EQ(x.kv_tiers[t].read_bytes, y.kv_tiers[t].read_bytes);
            ASSERT_EQ(x.kv_tiers[t].write_bytes, y.kv_tiers[t].write_bytes);
        }
        ASSERT_EQ(x.kv_occupancy.size(), y.kv_occupancy.size());
        for (std::size_t t = 0; t < x.kv_occupancy.size(); ++t) {
            ASSERT_EQ(x.kv_occupancy[t].tier, y.kv_occupancy[t].tier);
            ASSERT_EQ(x.kv_occupancy[t].bytes, y.kv_occupancy[t].bytes);
        }
    }
}

/** Bit-pattern equality of two timelines: every token end and every
 *  record. */
void
expect_same_timeline(const BatchTimeline &a, const BatchTimeline &b)
{
    EXPECT_EQ(bits(a.start), bits(b.start));
    EXPECT_EQ(bits(a.end), bits(b.end));
    EXPECT_EQ(a.reps, b.reps);
    EXPECT_EQ(a.tokens, b.tokens);
    ASSERT_EQ(a.token_end.size(), b.token_end.size());
    for (std::size_t i = 0; i < a.token_end.size(); ++i)
        ASSERT_EQ(bits(a.token_end[i]), bits(b.token_end[i])) << "token " << i;
    expect_same_records(a.records, b.records);
}

/** Bit-pattern equality of the GPU and port statistics a cluster
 *  batch reads off two fabrics, over @p makespan. */
void
expect_same_fabric(const Fabric &a, const Fabric &b, Seconds makespan)
{
    const auto gpus_a = cluster::gpu_stats(a, makespan);
    const auto gpus_b = cluster::gpu_stats(b, makespan);
    ASSERT_EQ(gpus_a.size(), gpus_b.size());
    for (std::size_t g = 0; g < gpus_a.size(); ++g) {
        SCOPED_TRACE("gpu " + std::to_string(g));
        EXPECT_EQ(gpus_a[g].gpu, gpus_b[g].gpu);
        EXPECT_EQ(bits(gpus_a[g].compute_busy), bits(gpus_b[g].compute_busy));
        EXPECT_EQ(gpus_a[g].h2d_bytes, gpus_b[g].h2d_bytes);
        EXPECT_EQ(gpus_a[g].d2h_bytes, gpus_b[g].d2h_bytes);
        EXPECT_EQ(bits(gpus_a[g].utilization), bits(gpus_b[g].utilization));
    }
    const auto ports_a = cluster::port_stats(a, makespan);
    const auto ports_b = cluster::port_stats(b, makespan);
    ASSERT_EQ(ports_a.size(), ports_b.size());
    for (std::size_t p = 0; p < ports_a.size(); ++p) {
        SCOPED_TRACE("port " + ports_a[p].name);
        EXPECT_EQ(ports_a[p].name, ports_b[p].name);
        EXPECT_EQ(bits(ports_a[p].rate.raw()), bits(ports_b[p].rate.raw()));
        EXPECT_EQ(ports_a[p].bytes, ports_b[p].bytes);
        EXPECT_EQ(bits(ports_a[p].utilization), bits(ports_b[p].utilization));
        EXPECT_EQ(ports_a[p].throttle_events, ports_b[p].throttle_events);
    }
}

/** The DES on a fresh @p gpus-GPU fabric. */
BatchTimeline
des_timeline(const CompiledSchedule &compiled, const gpu::GpuSpec &gpu,
             const FabricRates &rates, std::uint64_t gpus = 1)
{
    Fabric fabric(gpus, gpu, rates);
    Executor executor(fabric, std::span(&compiled, 1));
    const Status status = executor.run();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return executor.timeline(true);
}

/** The fill passes each side of a closed_form_matches_des() left on
 *  its fabric: the closed form counts only the port fills it ran. */
struct FillPasses
{
    std::uint64_t closed_form = 0;
    std::uint64_t des = 0;
};

/**
 * Try the closed form for @p shards in lockstep on a fresh @p gpus-GPU
 * fabric, fall back to run() on the same executor and fabric when it
 * declines (as the engine and the cluster do), and compare the timeline
 * and the fabric's statistics with a DES-only run.  Returns whether the
 * closed form took the run.
 */
bool
closed_form_matches_des(std::span<const CompiledSchedule> shards,
                        const gpu::GpuSpec &gpu, const FabricRates &rates,
                        std::uint64_t gpus, FillPasses *fills = nullptr)
{
    Fabric fabric(gpus, gpu, rates);
    Executor executor(fabric, shards);
    const bool solved = executor.run_closed_form();
    if (!solved) {
        const Status status = executor.run();
        EXPECT_TRUE(status.is_ok()) << status.to_string();
    }
    EXPECT_TRUE(executor.status().is_ok());
    Fabric des_fabric(gpus, gpu, rates);
    Executor des(des_fabric, shards);
    const Status status = des.run();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    const BatchTimeline reference = des.timeline(true);
    expect_same_timeline(executor.timeline(true), reference);
    expect_same_fabric(fabric, des_fabric, reference.end - reference.start);
    if (fills != nullptr)
        *fills = {fabric.fill_passes(), des_fabric.fill_passes()};
    return solved;
}

/** One shard on a @p gpus-GPU fabric. */
bool
closed_form_matches_des(const CompiledSchedule &compiled,
                        const gpu::GpuSpec &gpu, const FabricRates &rates,
                        std::uint64_t gpus = 1)
{
    return closed_form_matches_des(std::span(&compiled, 1), gpu, rates,
                                   gpus);
}

/** The single-flow rule, restated from the schedule's steps alone. */
bool
single_flow(const CompiledSchedule &compiled)
{
    for (std::uint64_t k = 0; k < compiled.step_count(); ++k) {
        const ScheduledStep s = compiled.step(k);
        if (s.disk_bytes > 0 || !compiled.kv_reads(s).empty() ||
            !compiled.kv_writes(s).empty())
            return false;
    }
    return true;
}

template <typename T>
const T &
pick(Rng &rng, const std::vector<T> &options)
{
    return options[rng.next_below(options.size())];
}

TEST(ClosedForm, MatchesDesBitForBitOnSeededDraws)
{
    const std::vector<model::TransformerConfig> models = model::all_models();
    std::vector<mem::HostSpec> hosts;
    for (const std::string &name : mem::device_names())
        hosts.emplace_back(name);
    hosts.push_back(mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(37.5)));
    const std::vector<placement::PlacementKind> placements = {
        placement::PlacementKind::kBaseline, placement::PlacementKind::kHelm,
        placement::PlacementKind::kAllCpu};
    const std::vector<placement::ComputeSiteMode> sites = {
        placement::ComputeSiteMode::kGpuOnly,
        placement::ComputeSiteMode::kNdpAuto,
        placement::ComputeSiteMode::kNdpAll};

    Rng rng(20261017);
    int compared = 0;
    int eligible = 0;
    int ndp_runs = 0;
    for (int draw = 0; draw < 200; ++draw) {
        ServingSpec spec;
        spec.model = pick(rng, models);
        // Every fourth draw sits on the near-data host so NDP steps,
        // which skip the h2d flow and the launch overhead, are common.
        spec.memory = draw % 4 == 0 ? mem::HostSpec("NDP-DIMM")
                                    : pick(rng, hosts);
        spec.placement = pick(rng, placements);
        spec.batch = static_cast<std::uint64_t>(rng.next_in_range(1, 64));
        spec.micro_batches =
            static_cast<std::uint64_t>(rng.next_in_range(1, 4));
        spec.compress_weights = rng.next_below(2) == 1;
        spec.shape.prompt_tokens =
            static_cast<std::uint64_t>(rng.next_in_range(1, 512));
        spec.shape.output_tokens =
            static_cast<std::uint64_t>(rng.next_in_range(1, 24));
        spec.repeats = static_cast<std::uint64_t>(rng.next_in_range(1, 3));
        if (spec.memory.name() == "NDP-DIMM")
            spec.compute_site = pick(rng, sites);
        if (!spec.validate().is_ok())
            continue;
        const auto compiled = compile_schedule(spec);
        if (!compiled.is_ok())
            continue;
        SCOPED_TRACE("draw " + std::to_string(draw) + ": " +
                     spec.model.name + " on " + spec.memory.name());
        const bool solved = closed_form_matches_des(
            *compiled, spec.gpu, link_rates(compiled->system));
        ++compared;
        if (single_flow(*compiled)) {
            ++eligible;
            EXPECT_TRUE(solved);
            for (std::uint64_t k = 0; k < compiled->step_count(); ++k) {
                if (compiled->step(k).site == placement::ComputeSite::kNdp) {
                    ++ndp_runs;
                    break;
                }
            }
        } else {
            EXPECT_FALSE(solved);
        }
    }
    EXPECT_GE(compared, 40);
    EXPECT_GT(2 * eligible, compared) << eligible << " of " << compared;
    EXPECT_GE(ndp_runs, 5);
}

// ---------------------------------------------------------------------
// Boundary cases: the closed form declines and the engine's output is
// the DES's.

ServingSpec
small_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt6_7B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.batch = 4;
    spec.shape.prompt_tokens = 64;
    spec.shape.output_tokens = 6;
    return spec;
}

/** The closed form declines @p spec, and simulate_inference's records
 *  and metrics are the DES's. */
void
expect_declined_engine_run(const ServingSpec &spec)
{
    const auto compiled = compile_schedule(spec);
    ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
    EXPECT_FALSE(single_flow(*compiled));
    const FabricRates rates = link_rates(compiled->system);
    EXPECT_FALSE(closed_form_matches_des(*compiled, spec.gpu, rates));

    const auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const BatchTimeline des = des_timeline(*compiled, spec.gpu, rates);
    EXPECT_EQ(bits(result->metrics.total_time), bits(des.end));
    expect_same_records(result->records, des.records);
}

TEST(ClosedForm, DeclinesDiskFlows)
{
    for (const mem::ConfigKind kind :
         {mem::ConfigKind::kSsd, mem::ConfigKind::kFsdax}) {
        ServingSpec spec = small_spec();
        spec.memory = kind;
        spec.placement = placement::PlacementKind::kBaseline;
        expect_declined_engine_run(spec);
    }
}

TEST(ClosedForm, DeclinesLegacyKvOffload)
{
    ServingSpec spec = small_spec();
    spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    expect_declined_engine_run(spec);
}

TEST(ClosedForm, DeclinesBoundedGpuKvTier)
{
    ServingSpec spec = small_spec();
    const Bytes block_bytes =
        16 * model::kv_bytes_per_block(spec.model, 1) * spec.model.blocks;
    auto config = kvcache::KvCacheConfig::tiered();
    config.tiers[0].auto_capacity = false;
    config.tiers[0].capacity = 8 * block_bytes;
    spec.kv_cache = config;
    expect_declined_engine_run(spec);
}

TEST(ClosedForm, TakesSharedPortsButNotIdleGpus)
{
    const ServingSpec spec = small_spec();
    const auto compiled = compile_schedule(spec);
    ASSERT_TRUE(compiled.is_ok());
    ASSERT_TRUE(single_flow(*compiled));
    const FabricRates links = link_rates(compiled->system);
    EXPECT_TRUE(closed_form_matches_des(*compiled, spec.gpu, links));
    // One shard on a two-GPU fabric leaves a GPU to other executors, as
    // replica jobs share a fabric.
    EXPECT_FALSE(closed_form_matches_des(*compiled, spec.gpu, links, 2));

    // A one-GPU fabric with shared ports: every load is one slice on the
    // link and one on the read port.
    const FabricRates ports = cluster::compute_port_rates(
        *compiled, 1, compiled->host_resident_bytes);
    ASSERT_FALSE(ports.host_read.is_zero());
    EXPECT_TRUE(closed_form_matches_des(*compiled, spec.gpu, ports));
}

// ---------------------------------------------------------------------
// Lockstep: G tensor shards on a G-GPU fabric, every load one slice per
// shard on its link and on the shared read port.

/** Whether @p shards' only flows are host-tier weight loads, with no
 *  near-data layer when several shards share the NDP units. */
bool
lockstep_eligible(const std::vector<CompiledSchedule> &shards)
{
    for (const CompiledSchedule &shard : shards) {
        if (!single_flow(shard))
            return false;
        for (const LayerRow &layer : shard.layer_rows) {
            if (shards.size() > 1 &&
                layer.site == placement::ComputeSite::kNdp)
                return false;
        }
    }
    return true;
}

/** The fastest one slice of @p shards can load alone: its cap, or the
 *  link when uncapped. */
double
slice_ceiling(const std::vector<CompiledSchedule> &shards,
              const FabricRates &rates)
{
    double ceiling = 0.0;
    for (const CompiledSchedule &shard : shards) {
        for (const LayerRow &layer : shard.layer_rows) {
            const double cap = layer.cpu_cap.raw();
            ceiling = std::max(ceiling, cap > 0.0
                                            ? std::min(cap, rates.h2d.raw())
                                            : rates.h2d.raw());
        }
    }
    return ceiling;
}

TEST(ClosedForm, LockstepMatchesDesBitForBitOnSeededDraws)
{
    const std::vector<model::TransformerConfig> models = model::all_models();
    std::vector<mem::HostSpec> hosts;
    for (const std::string &name : mem::device_names())
        hosts.emplace_back(name);
    hosts.push_back(mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(37.5)));
    const std::vector<placement::PlacementKind> placements = {
        placement::PlacementKind::kBaseline, placement::PlacementKind::kHelm,
        placement::PlacementKind::kAllCpu};
    const std::vector<std::uint64_t> gpu_counts = {2, 3, 4, 8};

    Rng rng(20261020);
    // Solved draws per port regime: as the cluster sizes it, below,
    // at and above G x one slice's ceiling.
    std::vector<int> solved(4, 0);
    int unequal = 0;
    int declined = 0;
    for (int draw = 0; draw < 120; ++draw) {
        ServingSpec spec;
        spec.model = pick(rng, models);
        spec.memory = draw % 6 == 0 ? mem::HostSpec("NDP-DIMM")
                                    : pick(rng, hosts);
        spec.placement = pick(rng, placements);
        spec.batch = static_cast<std::uint64_t>(rng.next_in_range(1, 16));
        spec.micro_batches =
            static_cast<std::uint64_t>(rng.next_in_range(1, 2));
        spec.compress_weights = rng.next_below(2) == 1;
        spec.shape.prompt_tokens =
            static_cast<std::uint64_t>(rng.next_in_range(1, 256));
        spec.shape.output_tokens =
            static_cast<std::uint64_t>(rng.next_in_range(1, 6));
        spec.repeats = static_cast<std::uint64_t>(rng.next_in_range(1, 2));
        if (spec.memory.name() == "NDP-DIMM")
            spec.compute_site = placement::ComputeSiteMode::kNdpAll;
        cluster::ClusterSpec cluster_spec;
        cluster_spec.serving = spec;
        cluster_spec.gpus = pick(rng, gpu_counts);
        cluster_spec.parallelism = cluster::Parallelism::kTensor;
        if (!cluster_spec.validate().is_ok())
            continue;
        auto cluster = cluster::compile_cluster(cluster_spec, spec);
        if (!cluster.is_ok())
            continue;
        std::vector<CompiledSchedule> shards = std::move(cluster->shards);
        FabricRates rates = cluster->rates;
        const std::uint64_t G = cluster_spec.gpus;
        const double ceiling =
            static_cast<double>(G) * slice_ceiling(shards, rates);
        const int regime = draw % 4;
        if (regime == 1) {
            rates.host_read =
                Bandwidth::bytes_per_s(ceiling * (0.3 + 0.6 * rng.next_double()));
        } else if (regime == 2) {
            rates.host_read = Bandwidth::bytes_per_s(ceiling);
        } else if (regime == 3) {
            rates.host_read = Bandwidth::bytes_per_s(2.0 * ceiling);
        }
        // Tensor shards compile to equal slices; scale the others apart
        // so that they finish at different times and refill the port.
        const bool scaled = rng.next_below(2) == 1;
        if (scaled) {
            for (std::size_t g = 1; g < shards.size(); ++g) {
                const Bytes percent = 100 + 29 * g + rng.next_below(40);
                for (LayerRow &layer : shards[g].layer_rows)
                    layer.cpu_bytes = layer.cpu_bytes * percent / 100;
            }
        }
        SCOPED_TRACE("draw " + std::to_string(draw) + ": " +
                     spec.model.name + " on " + spec.memory.name() + " x " +
                     std::to_string(G) + ", port regime " +
                     std::to_string(regime) + (scaled ? ", unequal" : ""));
        const bool took = closed_form_matches_des(shards, spec.gpu, rates, G);
        EXPECT_EQ(took, lockstep_eligible(shards));
        if (took) {
            ++solved[static_cast<std::size_t>(regime)];
            unequal += scaled ? 1 : 0;
        } else {
            ++declined;
        }
    }
    for (std::size_t regime = 0; regime < solved.size(); ++regime)
        EXPECT_GE(solved[regime], 8) << "port regime " << regime;
    EXPECT_GE(unequal, 15);
    EXPECT_GE(declined, 5);
}

/** Tensor shards of @p spec on @p gpus GPUs, and their fabric rates. */
cluster::CompiledCluster
tensor_shards(const ServingSpec &spec, std::uint64_t gpus)
{
    cluster::ClusterSpec cluster_spec;
    cluster_spec.serving = spec;
    cluster_spec.gpus = gpus;
    cluster_spec.parallelism = cluster::Parallelism::kTensor;
    auto cluster = cluster::compile_cluster(cluster_spec, spec);
    EXPECT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    return cluster.is_ok() ? std::move(*cluster) : cluster::CompiledCluster{};
}

TEST(ClosedForm, LockstepDeclinesKvDiskAndSharedNearDataUnits)
{
    // Each declined run then goes to run() on the same executor and
    // fabric, and matches a fresh DES, statistics included: the decline
    // left both as constructed.
    ServingSpec kv = small_spec();
    kv.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    ServingSpec disk = small_spec();
    disk.memory = mem::ConfigKind::kSsd;
    disk.placement = placement::PlacementKind::kBaseline;
    ServingSpec ndp = small_spec();
    ndp.memory = "NDP-DIMM";
    ndp.compute_site = placement::ComputeSiteMode::kNdpAll;
    for (const ServingSpec &spec : {kv, disk, ndp}) {
        SCOPED_TRACE(spec.memory.name());
        const cluster::CompiledCluster cluster = tensor_shards(spec, 2);
        ASSERT_EQ(cluster.shards.size(), 2u);
        EXPECT_FALSE(closed_form_matches_des(cluster.shards, spec.gpu,
                                             cluster.rates, 2));
    }
    // Near-data layers on one GPU have the NDP units to themselves.
    const cluster::CompiledCluster alone = tensor_shards(ndp, 1);
    ASSERT_EQ(alone.shards.size(), 1u);
    EXPECT_TRUE(closed_form_matches_des(alone.shards, ndp.gpu, alone.rates, 1));
}

// ---------------------------------------------------------------------
// Round-off re-arms: a long compute pushes step 1 far along the clock,
// and step 1 prefetches step 2's weights there, so the first completion
// of that load can round short of the bytes' true duration and leave a
// remainder the channel re-arms for.

/** The h2d rate of the re-arm cases. */
FabricRates
rearm_rates()
{
    FabricRates rates;
    rates.h2d = Bandwidth::gb_per_s(25.0);
    rates.d2h = Bandwidth::gb_per_s(25.0);
    return rates;
}

/**
 * The first byte count of 20,000 from @p from in steps of 997 whose
 * load, issued at @p issue on @p rate, leaves more than kByteEpsilon
 * after its first completion, and whose re-armed completion @p advances
 * the clock or not; 0 when none does.
 */
Bytes
find_rearm(Seconds issue, double rate, bool advances, Bytes from)
{
    for (Bytes bytes = from; bytes < from + 20'000 * 997; bytes += 997) {
        double remaining = static_cast<double>(bytes);
        const Seconds first = issue + remaining / rate;
        if (first == issue)
            continue;
        remaining -= rate * (first - issue);
        if (remaining > sim::FlowTable::kByteEpsilon &&
            (first + remaining / rate != first) == advances)
            return bytes;
    }
    return 0;
}

/** Three steps of one token: a @p long_compute input embedding, then
 *  two 1 s FFN layers, the last of which loads @p bytes from the host. */
CompiledSchedule
rearm_schedule(Seconds long_compute, Bytes bytes)
{
    CompiledSchedule schedule;
    schedule.tokens = 1;
    schedule.layer_rows.resize(3);
    schedule.layer_rows[0].type = model::LayerType::kInputEmbedding;
    schedule.layer_rows[1].type = model::LayerType::kFfn;
    schedule.layer_rows[2].type = model::LayerType::kFfn;
    schedule.layer_rows[2].cpu_bytes = bytes;
    for (int k = 0; k < 3; ++k)
        schedule.layer_rows[static_cast<std::size_t>(k)].layer = k;
    TokenRow &token = schedule.token_rows.emplace_back();
    token.compute[static_cast<std::size_t>(
        model::LayerType::kInputEmbedding)] = long_compute;
    token.compute[static_cast<std::size_t>(model::LayerType::kFfn)] = 1.0;
    return schedule;
}

TEST(ClosedForm, DeliversAReArmThatDoesNotAdvanceTheClock)
{
    // The re-armed remainder rounds to no advance, so the DES delivers
    // the flow when that re-armed event fires: the closed form follows.
    const gpu::GpuSpec gpu = gpu::GpuSpec::a100_40gb();
    const FabricRates rates = rearm_rates();
    const double rate = rates.h2d.raw();
    const Seconds long_compute = 1e9;
    const Seconds issue = 0.0 + (long_compute + gpu.layer_overhead);
    const Bytes stuck = find_rearm(issue, rate, /*advances=*/false, 1);
    ASSERT_GT(stuck, 0u) << "no non-advancing re-arm in the search range";

    CompiledSchedule schedule = rearm_schedule(long_compute, stuck);
    EXPECT_TRUE(closed_form_matches_des(schedule, gpu, rates));
    // The load lands where its first completion fired.
    Fabric fabric(1, gpu, rates);
    Executor executor(fabric, std::span(&schedule, 1));
    ASSERT_TRUE(executor.run_closed_form());
    const Seconds first = issue + static_cast<double>(stuck) / rate;
    EXPECT_EQ(bits(executor.timeline(true).records[2].transfer_time),
              bits(first - issue));

    // The same load issued near the start of the clock lands cleanly.
    schedule.token_rows[0].compute[static_cast<std::size_t>(
        model::LayerType::kInputEmbedding)] = 1.0;
    EXPECT_TRUE(closed_form_matches_des(schedule, gpu, rates));
}

TEST(ClosedForm, FollowsAReArmThatAdvancesTheClock)
{
    // The re-armed remainder moves the clock: the DES fires the
    // completion again later and subtracts what moved meanwhile.  That
    // takes a load long against the clock it starts at: a petabyte
    // issued a million seconds in.
    const gpu::GpuSpec gpu = gpu::GpuSpec::a100_40gb();
    const FabricRates rates = rearm_rates();
    const double rate = rates.h2d.raw();
    const Seconds long_compute = 1e6;
    const Seconds issue = 0.0 + (long_compute + gpu.layer_overhead);
    const Bytes bytes =
        find_rearm(issue, rate, /*advances=*/true, 1'000'000'000'000'000);
    ASSERT_GT(bytes, 0u) << "no advancing re-arm in the search range";

    const CompiledSchedule schedule = rearm_schedule(long_compute, bytes);
    EXPECT_TRUE(closed_form_matches_des(schedule, gpu, rates));
    Fabric fabric(1, gpu, rates);
    Executor executor(fabric, std::span(&schedule, 1));
    ASSERT_TRUE(executor.run_closed_form());
    const Seconds first = issue + static_cast<double>(bytes) / rate;
    EXPECT_GT(executor.timeline(true).records[2].transfer_time,
              first - issue);
}

/**
 * @p gpus lockstep shards of 32 tokens over three layers: an input
 * embedding whose first compute is 2^19 s, then two FFN layers loading
 * @p bytes[0] and @p bytes[1] (shard g's scaled by 1 + g / 4 when
 * @p unequal) under @p cap.  Every load after the first step is issued
 * past 2^19 s of virtual time, on the clock's 2^-33 s grid.
 */
std::vector<CompiledSchedule>
long_run_shards(std::size_t gpus, Bandwidth cap, const Bytes (&bytes)[2],
                bool unequal)
{
    std::vector<CompiledSchedule> shards(gpus);
    for (std::size_t g = 0; g < gpus; ++g) {
        CompiledSchedule &shard = shards[g];
        shard.tokens = 32;
        shard.layer_rows.resize(3);
        for (std::size_t l = 0; l < 3; ++l) {
            LayerRow &layer = shard.layer_rows[l];
            layer.layer = static_cast<int>(l);
            layer.type = l == 0 ? model::LayerType::kInputEmbedding
                                : model::LayerType::kFfn;
            const Bytes load = l == 0 ? 0 : bytes[l - 1];
            layer.cpu_bytes = unequal ? load * (4 + g) / 4 : load;
            layer.cpu_cap = cap;
        }
        for (std::size_t t = 0; t < shard.tokens; ++t) {
            TokenRow &token = shard.token_rows.emplace_back();
            token.token = t;
            token.compute[static_cast<std::size_t>(
                model::LayerType::kInputEmbedding)] =
                t == 0 ? 0x1p19 : 1e-3;
            token.compute[static_cast<std::size_t>(model::LayerType::kFfn)] =
                2e-3;
        }
    }
    return shards;
}

TEST(ClosedForm, LockstepFollowsReArmsLateInALongRun)
{
    const gpu::GpuSpec gpu = gpu::GpuSpec::a100_40gb();
    const Bandwidth cap = Bandwidth::gb_per_s(19.4);
    FabricRates rates = rearm_rates();
    // Every time past 2^19 s lies on the 2^-33 s grid, so a load of a
    // given size issued there at its cap rounds the same way wherever
    // it starts: pick sizes whose first completion leaves a remainder.
    const Bytes bytes[2] = {
        find_rearm(0x1p19, cap.raw(), /*advances=*/false, 1'000'000'000),
        find_rearm(0x1p19, cap.raw(), /*advances=*/false, 300'000'000)};
    ASSERT_GT(bytes[0], 0u);
    ASSERT_GT(bytes[1], 0u);
    for (const std::size_t G : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(G) + " GPUs");
        // Port at twice what G slices can use: every slice runs at its
        // cap, so equal slices share each completion, and a port fill
        // beyond one per load is a re-arm.
        rates.host_read = cap.scaled(2.0 * static_cast<double>(G));
        const std::vector<CompiledSchedule> equal =
            long_run_shards(G, cap, bytes, /*unequal=*/false);
        FillPasses fills;
        EXPECT_TRUE(closed_form_matches_des(equal, gpu, rates, G, &fills));
        const std::uint64_t loads = 2 * equal.front().tokens;
        EXPECT_GT(fills.closed_form, loads) << "no port re-arm";
        // The DES fills each lone link flow once, plus once per re-arm.
        EXPECT_GT(fills.des - fills.closed_form, G * loads)
            << "no link re-arm";

        // A port the slices contend on, with unequal slices: shares an
        // ulp apart, staggered completions and their refills, late.
        rates.host_read = cap.scaled(0.7 * static_cast<double>(G));
        EXPECT_TRUE(closed_form_matches_des(
            long_run_shards(G, cap, bytes, /*unequal=*/true), gpu, rates, G));
    }
}

} // namespace
} // namespace helm::runtime
