/**
 * @file
 * The executor's closed form against its DES, bit for bit.
 *
 * Seeded draws over zoo models, every registered host (plus a custom
 * CXL rate), placements, batch shapes, int4 and NDP compute sites each
 * run one executor through run_closed_form() and a fresh fabric plus
 * executor through run(); every token end time and every per-step
 * record field must match to the bit pattern.  Boundary cases pin the
 * eligibility rule: disk flows, managed KV flows, extra GPUs, shared
 * ports, and a load whose completion would re-arm without advancing
 * the clock all decline, leaving the DES to run them.
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

/** The single-flow rule, restated from the schedule alone. */
bool
single_flow(const CompiledSchedule &compiled)
{
    for (const ScheduledStep &s : compiled.steps) {
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
            for (const ScheduledStep &s : compiled->steps) {
                if (s.site == placement::ComputeSite::kNdp) {
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

TEST(ClosedForm, DeclinesALoadThatWouldNotAdvanceTheClock)
{
    // Three steps: a long compute pushes step 1 far along the clock,
    // and step 1 prefetches step 2's weights there.  Search for a byte
    // count whose first completion rounds short of the bytes' true
    // duration and whose re-armed remainder then rounds to no advance:
    // the DES delivers such a flow when the re-armed event fires, which
    // the closed form does not model.
    const gpu::GpuSpec gpu = gpu::GpuSpec::a100_40gb();
    FabricRates rates;
    rates.h2d = Bandwidth::gb_per_s(25.0);
    rates.d2h = Bandwidth::gb_per_s(25.0);
    const double rate = rates.h2d.raw();
    const Seconds long_compute = 1e9;
    const Seconds issue = 0.0 + (long_compute + gpu.layer_overhead);

    Bytes stuck = 0;
    for (Bytes bytes = 1; bytes < 4'000'000 && stuck == 0; bytes += 997) {
        double remaining = static_cast<double>(bytes);
        const Seconds first = issue + remaining / rate;
        if (first == issue)
            continue;
        remaining -= rate * (first - issue);
        if (remaining > sim::BandwidthChannel::kByteEpsilon &&
            first + remaining / rate == first)
            stuck = bytes;
    }
    ASSERT_GT(stuck, 0u) << "no non-advancing re-arm in the search range";

    CompiledSchedule schedule;
    schedule.tokens = 1;
    schedule.num_layers = 3;
    schedule.steps.resize(3);
    schedule.steps[0].compute = long_compute;
    schedule.steps[1].compute = 1.0;
    schedule.steps[2].compute = 1.0;
    schedule.steps[2].cpu_bytes = stuck;
    for (int k = 0; k < 3; ++k)
        schedule.steps[static_cast<std::size_t>(k)].layer = k;

    Fabric fabric(1, gpu, rates);
    Executor executor(fabric, std::span(&schedule, 1));
    EXPECT_FALSE(executor.run_closed_form());
    // Declined without a trace: the executor is as constructed.
    EXPECT_FALSE(executor.status().is_ok());
    const BatchTimeline untouched = executor.timeline(true);
    for (const LayerStepRecord &rec : untouched.records) {
        EXPECT_EQ(bits(rec.step_start), bits(0.0));
        EXPECT_EQ(bits(rec.step_end), bits(0.0));
        EXPECT_EQ(bits(rec.transfer_start), bits(0.0));
        EXPECT_EQ(bits(rec.transfer_time), bits(0.0));
    }
    // The DES finishes it: the load lands where its first completion
    // fired, well inside ten thousand events.
    executor.start();
    EXPECT_TRUE(fabric.run(10'000).is_ok());
    EXPECT_TRUE(executor.status().is_ok());
    const Seconds first = issue + static_cast<double>(stuck) / rate;
    EXPECT_EQ(bits(executor.timeline(true).records[2].transfer_time),
              bits(first - issue));

    // The same load issued near the start of the clock lands cleanly
    // and takes the closed form.
    schedule.steps[0].compute = 1.0;
    EXPECT_TRUE(closed_form_matches_des(schedule, gpu, rates));
}

} // namespace
} // namespace helm::runtime
