/**
 * @file
 * Oracle for the schedule's row tables: CompiledSchedule::step(k) must
 * equal, field by field, the step a reference flattening emits for the
 * same compile.  The reference is the per-step emission loop the
 * compiler ran before it kept rows: one ScheduledStep per (repeat,
 * token, layer) plus one KV traffic row per (repeat, token), built from
 * the compile's placement, memory system and budget, with compute
 * sites and the KV manager re-derived here.  The grid crosses the
 * compile oracle's (OPT and a GQA LLaMa, FP16 and 4-bit weights, whole,
 * tensor-2, tensor-4 and pipeline shards, HeLM and Balanced, roomy and
 * spilled) with repeats 1-3, and adds NDP-DIMM near-data decode and
 * tiered KV caches (occupancy sampled, reads prefetched or blocking).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpu/compute_model.h"
#include "mem/device.h"
#include "model/footprint.h"
#include "model/llama.h"
#include "model/opt.h"
#include "placement/ndp_aware.h"
#include "runtime/schedule.h"

namespace helm::runtime {
namespace {

using placement::Tier;

/** The flattened schedule: one step per (repeat, token, layer). */
struct ReferenceSchedule
{
    std::vector<ScheduledStep> steps;
    std::vector<KvTraffic> kv_traffic;
};

gpu::LayerWork
reference_work(const ServingSpec &spec, model::LayerType type,
               gpu::Stage stage, std::uint64_t context)
{
    gpu::LayerWork work;
    work.config = &spec.model;
    work.layer = type;
    work.stage = stage;
    work.batch = spec.batch;
    work.prompt_tokens = spec.shape.prompt_tokens;
    work.context_tokens = context;
    work.compressed = spec.compress_weights;
    return work;
}

/** The per-step emission loop over @p compiled's placement and system. */
ReferenceSchedule
reference_flatten(const ServingSpec &spec, const ShardOptions &shard,
                  const CompiledSchedule &compiled)
{
    ReferenceSchedule out;
    auto geo = shard_geometry(spec, shard);
    EXPECT_TRUE(geo.is_ok());
    if (!geo.is_ok())
        return out;
    const std::vector<model::LayerSpec> &layers = geo->layers;
    const placement::PlacementMap &map = compiled.placement;
    const mem::HostMemorySystem &system = compiled.system;
    const double per_step =
        static_cast<double>(spec.micro_batches) * geo->compute_scale;
    const std::uint64_t mid_context =
        spec.shape.prompt_tokens + spec.shape.output_tokens / 2;

    // Compute sites, as the compiler decides them.
    std::vector<placement::SiteDecision> sites;
    placement::NdpProfile ndp_profile;
    if (spec.compute_site != placement::ComputeSiteMode::kGpuOnly) {
        const auto *ndp =
            dynamic_cast<const mem::NdpDimmDevice *>(system.host().get());
        EXPECT_NE(ndp, nullptr);
        if (ndp == nullptr)
            return out;
        ndp_profile.h2d_bandwidth = system.host_to_gpu_bw(512 * kMiB);
        ndp_profile.gemv_rate = ndp->gemv_rate();
        ndp_profile.gemv_flops = ndp->gemv_flops();
        ndp_profile.command_latency = ndp->command_latency();
        std::vector<placement::LayerSiteWork> site_work(layers.size());
        for (std::size_t li = 0; li < layers.size(); ++li) {
            placement::LayerSiteWork &work = site_work[li];
            const placement::LayerPlacement &lp = map.layers[li];
            work.type = layers[li].type;
            work.host_bytes = lp.bytes_on(Tier::kCpu);
            work.total_bytes = lp.bytes_on(Tier::kGpu) +
                               lp.bytes_on(Tier::kCpu) +
                               lp.bytes_on(Tier::kDisk);
            work.stream_bytes = work.host_bytes * spec.micro_batches;
            const gpu::LayerWork decode = reference_work(
                spec, layers[li].type, gpu::Stage::kDecode, mid_context);
            work.flops = per_step * gpu::layer_flops(decode);
            work.gpu_compute =
                per_step * gpu::layer_compute_time(spec.gpu, decode) +
                spec.gpu.layer_overhead;
        }
        sites = placement::assign_compute_sites(site_work, ndp_profile,
                                                spec.compute_site);
    }

    // The KV manager over the tiers the compile resolved.
    kvcache::KvCacheConfig kv_config = spec.kv_config();
    for (kvcache::TierSpec &tier : kv_config.tiers) {
        if (!tier.is_gpu)
            continue;
        if (tier.auto_capacity) {
            tier.capacity = std::max<Bytes>(compiled.budget.free_bytes(), 1);
            tier.auto_capacity = false;
        } else if (tier.capacity > 0 && spec.enforce_gpu_capacity) {
            tier.capacity = std::max<Bytes>(
                std::min(tier.capacity, compiled.budget.free_bytes()), 1);
        }
    }
    auto kv_manager_or = kvcache::KvCacheManager::create(kv_config,
                                                         geo->kv_model);
    EXPECT_TRUE(kv_manager_or.is_ok());
    if (!kv_manager_or.is_ok())
        return out;
    kvcache::KvCacheManager &kv_manager = *kv_manager_or;

    const std::uint64_t num_layers = layers.size();
    const std::uint64_t tokens = spec.shape.output_tokens;
    std::vector<Bandwidth> cpu_caps(num_layers);
    std::vector<Bandwidth> disk_caps(num_layers);
    for (std::uint64_t li = 0; li < num_layers; ++li) {
        const Bytes cpu = map.layers[li].bytes_on(Tier::kCpu);
        const Bytes disk = map.layers[li].bytes_on(Tier::kDisk);
        if (cpu > 0)
            cpu_caps[li] = system.host_to_gpu_bw(cpu);
        if (disk > 0)
            disk_caps[li] = system.storage_to_gpu_bw(disk);
    }
    bool has_host_tier = false;
    for (std::size_t t = 0; t < kv_manager.tier_count(); ++t)
        has_host_tier |= !kv_manager.tier(t).is_gpu;

    for (std::uint64_t rep = 0; rep < spec.repeats; ++rep) {
        kv_manager.reset_requests();
        for (std::uint64_t r = 0; r < compiled.effective_batch; ++r)
            EXPECT_TRUE(kv_manager.add_request(r).is_ok());
        for (std::uint64_t tok = 0; tok < tokens; ++tok) {
            const gpu::Stage stage =
                tok == 0 ? gpu::Stage::kPrefill : gpu::Stage::kDecode;
            const std::uint64_t new_tokens =
                stage == gpu::Stage::kPrefill ? spec.shape.prompt_tokens
                                              : 1;
            auto traffic_or = kv_manager.step(
                new_tokens, stage == gpu::Stage::kDecode);
            EXPECT_TRUE(traffic_or.is_ok());
            if (!traffic_or.is_ok())
                return out;
            const kvcache::StepTraffic &traffic = *traffic_or;
            const auto kv_row =
                static_cast<std::uint32_t>(out.kv_traffic.size());
            KvTraffic &kv = out.kv_traffic.emplace_back();
            if (has_host_tier) {
                for (std::size_t t = 0; t < kv_manager.tier_count(); ++t)
                    kv.occupancy.push_back(kv_manager.tier_occupancy(t));
            }
            for (std::size_t t = 0; t < kv_manager.tier_count(); ++t) {
                const kvcache::TierSpec &tier = kv_manager.tier(t);
                if (traffic.read_bytes[t] > 0) {
                    KvFlowSpec flow;
                    flow.tier = t;
                    flow.bytes = traffic.read_bytes[t];
                    flow.cap = tier.read_bw.is_zero()
                                   ? system.host_to_gpu_bw(flow.bytes)
                                   : tier.read_bw;
                    kv.read_bytes += flow.bytes;
                    kv.reads.push_back(flow);
                }
                if (traffic.write_bytes[t] > 0) {
                    KvFlowSpec flow;
                    flow.tier = t;
                    flow.bytes = traffic.write_bytes[t];
                    flow.cap = tier.write_bw.is_zero()
                                   ? system.gpu_to_host_bw(flow.bytes)
                                   : tier.write_bw;
                    kv.write_bytes += flow.bytes;
                    kv.writes.push_back(flow);
                }
            }

            const bool ndp_token =
                !sites.empty() && stage == gpu::Stage::kDecode;
            for (std::uint64_t li = 0; li < num_layers; ++li) {
                const model::LayerSpec &layer = layers[li];
                const placement::LayerPlacement &lp = map.layers[li];
                const gpu::LayerWork work = reference_work(
                    spec, layer.type, stage, spec.shape.prompt_tokens + tok);
                ScheduledStep &step = out.steps.emplace_back();
                step.batch_index = rep;
                step.token = tok;
                step.layer = static_cast<int>(geo->first_layer + li);
                step.type = layer.type;
                step.stage = stage;
                step.compute =
                    per_step * gpu::layer_compute_time(spec.gpu, work);
                step.cpu_bytes = lp.bytes_on(Tier::kCpu);
                step.disk_bytes = lp.bytes_on(Tier::kDisk);
                if (ndp_token &&
                    sites[li].site == placement::ComputeSite::kNdp) {
                    step.site = placement::ComputeSite::kNdp;
                    step.ndp_bytes = step.cpu_bytes;
                    step.cpu_bytes = 0;
                    step.compute =
                        ndp_profile.command_latency +
                        placement::ndp_execution_time(
                            ndp_profile,
                            step.ndp_bytes * spec.micro_batches,
                            per_step * gpu::layer_flops(work));
                }
                if (step.cpu_bytes > 0)
                    step.cpu_cap = cpu_caps[li];
                step.disk_cap = disk_caps[li];
                if (layer.type == model::LayerType::kMha) {
                    step.kv = kv_row;
                    step.kv_prefetch = kv_config.prefetch;
                }
            }
        }
    }
    return out;
}

void
expect_same_flows(std::span<const KvFlowSpec> a,
                  const std::vector<KvFlowSpec> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tier, b[i].tier);
        EXPECT_EQ(a[i].bytes, b[i].bytes);
        EXPECT_EQ(a[i].cap.raw(), b[i].cap.raw());
    }
}

/** Compile @p spec and compare every step(k) with the reference;
 *  returns the compile. */
CompiledSchedule
check_rows(const ServingSpec &spec, const ShardOptions &shard = {})
{
    auto compiled = compile_schedule(spec, shard);
    EXPECT_TRUE(compiled.is_ok()) << compiled.status().to_string();
    if (!compiled.is_ok())
        return {};
    const ReferenceSchedule ref = reference_flatten(spec, shard, *compiled);
    EXPECT_EQ(compiled->step_count(), ref.steps.size());
    EXPECT_EQ(compiled->token_rows.size(), ref.kv_traffic.size());
    if (compiled->step_count() != ref.steps.size())
        return std::move(*compiled);
    for (std::uint64_t k = 0; k < ref.steps.size(); ++k) {
        const ScheduledStep got = compiled->step(k);
        const ScheduledStep &want = ref.steps[k];
        SCOPED_TRACE("step " + std::to_string(k));
        EXPECT_EQ(got.batch_index, want.batch_index);
        EXPECT_EQ(got.token, want.token);
        EXPECT_EQ(got.layer, want.layer);
        EXPECT_EQ(got.type, want.type);
        EXPECT_EQ(got.stage, want.stage);
        EXPECT_EQ(got.compute, want.compute);
        EXPECT_EQ(got.cpu_bytes, want.cpu_bytes);
        EXPECT_EQ(got.disk_bytes, want.disk_bytes);
        EXPECT_EQ(got.cpu_cap.raw(), want.cpu_cap.raw());
        EXPECT_EQ(got.disk_cap.raw(), want.disk_cap.raw());
        EXPECT_EQ(got.kv, want.kv);
        EXPECT_EQ(got.kv_prefetch, want.kv_prefetch);
        EXPECT_EQ(got.site, want.site);
        EXPECT_EQ(got.ndp_bytes, want.ndp_bytes);
        if (want.kv == kNoKv)
            continue;
        const KvTraffic &kv = ref.kv_traffic[want.kv];
        expect_same_flows(compiled->kv_reads(got), kv.reads);
        expect_same_flows(compiled->kv_writes(got), kv.writes);
        EXPECT_EQ(compiled->kv_read_bytes(got), kv.read_bytes);
        EXPECT_EQ(compiled->kv_write_bytes(got), kv.write_bytes);
        const std::span<const Bytes> occupancy = compiled->kv_occupancy(got);
        EXPECT_TRUE(std::equal(occupancy.begin(), occupancy.end(),
                               kv.occupancy.begin(), kv.occupancy.end()));
    }
    return std::move(*compiled);
}

TEST(ScheduleRows, StepsMatchTheReferenceFlattening)
{
    const std::vector<model::TransformerConfig> models = {
        model::opt_config(model::OptVariant::kOpt1_3B),
        model::llama_config(model::LlamaVariant::kLlama3_8B)};
    Rng rng(20261020);
    int spilled = 0;
    for (const model::TransformerConfig &config : models) {
        const std::uint64_t layers = config.num_layers();
        std::vector<ShardOptions> shards(4);
        shards[1].kind = ShardOptions::Kind::kTensor;
        shards[1].count = 2;
        shards[2].kind = ShardOptions::Kind::kTensor;
        shards[2].count = 4;
        shards[2].index = 3;
        shards[3].kind = ShardOptions::Kind::kPipeline;
        shards[3].count = 3;
        shards[3].index = 1;
        shards[3].layer_begin = layers / 3;
        shards[3].layer_end = 2 * layers / 3;
        for (const bool int4 : {false, true}) {
            for (const ShardOptions &shard : shards) {
                for (const auto kind : {placement::PlacementKind::kHelm,
                                        placement::PlacementKind::kBalanced}) {
                    ServingSpec spec;
                    spec.model = config;
                    spec.memory = mem::ConfigKind::kNvdram;
                    spec.placement = kind;
                    spec.compress_weights = int4;
                    spec.batch = static_cast<std::uint64_t>(
                        rng.next_in_range(1, 16));
                    spec.micro_batches = static_cast<std::uint64_t>(
                        rng.next_in_range(1, 4));
                    spec.shape.prompt_tokens = static_cast<std::uint64_t>(
                        rng.next_in_range(8, 256));
                    spec.shape.output_tokens = static_cast<std::uint64_t>(
                        rng.next_in_range(1, 8));
                    spec.repeats =
                        static_cast<std::uint64_t>(rng.next_in_range(1, 3));
                    spec.keep_records = false;
                    spec.policy = placement::Policy{0.0, 0.0, 100.0, false};
                    SCOPED_TRACE(config.name + (int4 ? " int4 " : " fp16 ") +
                                 "shard " + std::to_string(
                                     static_cast<int>(shard.kind)) + "/" +
                                 std::to_string(shard.count) + " " +
                                 placement::placement_kind_name(kind) +
                                 " repeats " + std::to_string(spec.repeats));
                    const CompiledSchedule roomy = check_rows(spec, shard);
                    spec.gpu.hbm_capacity =
                        roomy.budget.used() - roomy.budget.gpu_weights / 2;
                    const CompiledSchedule tight = check_rows(spec, shard);
                    spilled += tight.spill.spilled_weights > 0 ? 1 : 0;
                }
            }
        }
    }
    EXPECT_GE(spilled, 16);
}

TEST(ScheduleRows, NearDataStepsMatchTheReferenceFlattening)
{
    Rng rng(20261021);
    int ndp_steps = 0;
    for (const model::TransformerConfig &config :
         {model::opt_config(model::OptVariant::kOpt1_3B),
          model::llama_config(model::LlamaVariant::kLlama3_8B)}) {
        for (const bool int4 : {false, true}) {
            ServingSpec spec;
            spec.model = config;
            spec.memory = "NDP-DIMM";
            spec.placement = placement::PlacementKind::kAllCpu;
            spec.compute_site = placement::ComputeSiteMode::kNdpAuto;
            spec.compress_weights = int4;
            spec.batch = static_cast<std::uint64_t>(rng.next_in_range(1, 8));
            spec.micro_batches =
                static_cast<std::uint64_t>(rng.next_in_range(1, 4));
            spec.shape = {64, 6};
            spec.repeats = static_cast<std::uint64_t>(rng.next_in_range(1, 3));
            spec.keep_records = false;
            SCOPED_TRACE(config.name + (int4 ? " int4" : " fp16") +
                         " on NDP-DIMM");
            const CompiledSchedule compiled = check_rows(spec);
            for (std::uint64_t k = 0; k < compiled.step_count(); ++k)
                ndp_steps +=
                    compiled.step(k).site == placement::ComputeSite::kNdp;
        }
    }
    EXPECT_GT(ndp_steps, 0);
}

TEST(ScheduleRows, TieredKvStepsMatchTheReferenceFlattening)
{
    // A GPU tier of eight blocks per layer overflows into the host tier,
    // so tokens carry reads, writes and demotions, and every token row
    // samples the tiers' occupancy.
    int sampled = 0;
    int kv_reads = 0;
    for (const bool prefetch : {true, false}) {
        for (const std::uint64_t repeats : {1, 2, 3}) {
            ServingSpec spec;
            spec.model = model::opt_config(model::OptVariant::kOpt6_7B);
            spec.memory = mem::ConfigKind::kNvdram;
            spec.placement = placement::PlacementKind::kHelm;
            spec.batch = 4;
            spec.shape = {96, 7};
            spec.repeats = repeats;
            spec.keep_records = false;
            auto config = kvcache::KvCacheConfig::tiered();
            config.tiers[0].auto_capacity = false;
            config.tiers[0].capacity =
                8 * 16 * model::kv_bytes_per_block(spec.model, 1) *
                spec.model.blocks;
            config.prefetch = prefetch;
            spec.kv_cache = config;
            SCOPED_TRACE(std::string(prefetch ? "prefetch" : "blocking") +
                         " repeats " + std::to_string(repeats));
            const CompiledSchedule compiled = check_rows(spec);
            EXPECT_EQ(compiled.kv_prefetch, prefetch);
            for (const TokenRow &token : compiled.token_rows) {
                sampled += token.kv.occupancy.empty() ? 0 : 1;
                kv_reads += token.kv.reads.empty() ? 0 : 1;
            }
        }
    }
    EXPECT_GT(sampled, 0);
    EXPECT_GT(kv_reads, 0);
}

TEST(ScheduleRows, LegacyKvOffloadStepsMatchTheReferenceFlattening)
{
    ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kDram;
    spec.placement = placement::PlacementKind::kBaseline;
    spec.batch = 8;
    spec.shape = {32, 5};
    spec.repeats = 2;
    spec.keep_records = false;
    spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    const CompiledSchedule compiled = check_rows(spec);
    EXPECT_TRUE(compiled.moves_kv());
}

} // namespace
} // namespace helm::runtime
