/**
 * @file
 * The executor's closed form against its DES, bit for bit.
 *
 * Seeded draws over zoo models, every registered host (plus a custom
 * CXL rate), placements, batch shapes, int4 and NDP compute sites each
 * run one executor through run_closed_form() and a fresh fabric plus
 * executor through run(); every token end time and every per-step
 * record field must match to the bit pattern.  Boundary cases pin the
 * eligibility rule: disk flows, managed KV flows, extra GPUs and shared
 * ports decline, leaving the DES to run them.  Loads whose first
 * completion leaves a round-off remainder — re-armed without advancing
 * the clock, or advancing it — take the closed form and still match.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

/**
 * Try the closed form on a fresh fabric, fall back to run() on the
 * same executor when it declines (as the engine does), and compare
 * with a DES-only run.  Returns whether the closed form took the run.
 */
bool
closed_form_matches_des(const CompiledSchedule &compiled,
                        const gpu::GpuSpec &gpu, const FabricRates &rates,
                        std::uint64_t gpus = 1)
{
    Fabric fabric(gpus, gpu, rates);
    Executor executor(fabric, std::span(&compiled, 1));
    const bool solved = executor.run_closed_form();
    if (!solved) {
        const Status status = executor.run();
        EXPECT_TRUE(status.is_ok()) << status.to_string();
    }
    EXPECT_TRUE(executor.status().is_ok());
    expect_same_timeline(executor.timeline(true),
                         des_timeline(compiled, gpu, rates, gpus));
    return solved;
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

TEST(ClosedForm, DeclinesMultiGpuFabricAndSharedPorts)
{
    const ServingSpec spec = small_spec();
    const auto compiled = compile_schedule(spec);
    ASSERT_TRUE(compiled.is_ok());
    ASSERT_TRUE(single_flow(*compiled));
    const FabricRates links = link_rates(compiled->system);
    EXPECT_TRUE(closed_form_matches_des(*compiled, spec.gpu, links));
    EXPECT_FALSE(closed_form_matches_des(*compiled, spec.gpu, links, 2));

    const FabricRates ports = cluster::compute_port_rates(
        *compiled, 1, compiled->host_resident_bytes);
    ASSERT_FALSE(ports.host_read.is_zero());
    EXPECT_FALSE(closed_form_matches_des(*compiled, spec.gpu, ports));
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
        if (remaining > sim::BandwidthChannel::kByteEpsilon &&
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

} // namespace
} // namespace helm::runtime
