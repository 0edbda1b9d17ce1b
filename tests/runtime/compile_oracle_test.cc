/**
 * @file
 * Oracle for compile_schedule(): every compiled step's compute equals
 * the per-step roofline formula evaluated from scratch for that step's
 * (layer type, stage, context), and every layer placement's tier_bytes
 * equal a from-scratch sum over its weight_tiers after capacity
 * enforcement has spilled.  The grid crosses OPT and a GQA LLaMa, FP16
 * and 4-bit weights, tensor shards of 2 and 4, a pipeline shard, and
 * HeLM and Balanced placement, with batch, micro-batch and shape drawn
 * from a seeded generator; NDP-DIMM runs cover near-data steps.
 */
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpu/compute_model.h"
#include "mem/device.h"
#include "model/llama.h"
#include "model/opt.h"
#include "placement/ndp_aware.h"
#include "runtime/schedule.h"

namespace helm::runtime {
namespace {

using placement::ComputeSite;

/** compute of @p step by the formula, independent of the compiler. */
Seconds
expected_compute(const ServingSpec &spec, const ShardOptions &shard,
                 const CompiledSchedule &compiled, const ScheduledStep &step)
{
    gpu::LayerWork work;
    work.config = &spec.model;
    work.layer = step.type;
    work.stage = step.stage;
    work.batch = spec.batch;
    work.prompt_tokens = spec.shape.prompt_tokens;
    work.context_tokens = spec.shape.prompt_tokens + step.token;
    work.compressed = spec.compress_weights;
    const double compute_scale =
        shard.kind == ShardOptions::Kind::kTensor && shard.count > 1
            ? 1.0 / static_cast<double>(shard.count)
            : 1.0;
    const double per_step =
        static_cast<double>(spec.micro_batches) * compute_scale;
    if (step.site != ComputeSite::kNdp)
        return per_step * gpu::layer_compute_time(spec.gpu, work);
    const auto *ndp =
        dynamic_cast<const mem::NdpDimmDevice *>(compiled.system.host().get());
    EXPECT_NE(ndp, nullptr);
    if (ndp == nullptr)
        return -1.0;
    placement::NdpProfile profile;
    profile.gemv_rate = ndp->gemv_rate();
    profile.gemv_flops = ndp->gemv_flops();
    profile.command_latency = ndp->command_latency();
    return profile.command_latency +
           placement::ndp_execution_time(
               profile, step.ndp_bytes * spec.micro_batches,
               per_step * gpu::layer_flops(work));
}

/** Check every step of @p spec's compile against the formula and every
 *  layer's tier_bytes against its weight_tiers; returns the compile. */
CompiledSchedule
check_compile(const ServingSpec &spec, const ShardOptions &shard)
{
    auto compiled = compile_schedule(spec, shard);
    EXPECT_TRUE(compiled.is_ok()) << compiled.status().to_string();
    if (!compiled.is_ok())
        return {};
    for (std::uint64_t k = 0; k < compiled->step_count(); ++k) {
        const ScheduledStep step = compiled->step(k);
        EXPECT_EQ(step.stage == gpu::Stage::kPrefill, step.token == 0);
        if (step.site == ComputeSite::kNdp) {
            EXPECT_EQ(step.stage, gpu::Stage::kDecode);
        }
        EXPECT_EQ(step.compute,
                  expected_compute(spec, shard, *compiled, step))
            << "rep " << step.batch_index << " token " << step.token
            << " layer " << step.layer << " ("
            << model::layer_type_name(step.type) << ")";
    }

    const auto geometry = shard_geometry(spec, shard);
    EXPECT_TRUE(geometry.is_ok());
    if (!geometry.is_ok())
        return std::move(*compiled);
    const std::vector<model::LayerSpec> &layers = geometry->layers;
    const placement::PlacementMap &map = compiled->placement;
    EXPECT_EQ(map.layers.size(), layers.size());
    for (std::size_t li = 0; li < layers.size() && li < map.layers.size();
         ++li) {
        std::array<Bytes, placement::kNumTiers> sums{0, 0, 0};
        const auto &tiers = map.layers[li].weight_tiers;
        EXPECT_EQ(tiers.size(), layers[li].weights.size());
        for (std::size_t w = 0; w < tiers.size(); ++w)
            sums[static_cast<int>(tiers[w])] += layers[li].weights[w].bytes();
        EXPECT_EQ(map.layers[li].tier_bytes, sums) << "layer " << li;
    }
    return std::move(*compiled);
}

std::string
shard_name(const ShardOptions &shard)
{
    switch (shard.kind) {
      case ShardOptions::Kind::kNone:
        return "whole";
      case ShardOptions::Kind::kTensor:
        return "tensor" + std::to_string(shard.count);
      case ShardOptions::Kind::kPipeline:
        return "pipeline[" + std::to_string(shard.layer_begin) + "," +
               std::to_string(shard.layer_end) + ")";
    }
    return "?";
}

TEST(CompileOracle, StepsMatchTheRooflineAndTierBytesTheirWeights)
{
    const std::vector<model::TransformerConfig> models = {
        model::opt_config(model::OptVariant::kOpt1_3B),
        model::llama_config(model::LlamaVariant::kLlama3_8B)};
    ASSERT_GT(models[1].heads, models[1].effective_kv_heads());

    Rng rng(20261019);
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
                        rng.next_in_range(2, 4));
                    spec.shape.prompt_tokens = static_cast<std::uint64_t>(
                        rng.next_in_range(8, 256));
                    spec.shape.output_tokens = static_cast<std::uint64_t>(
                        rng.next_in_range(2, 8));
                    spec.repeats = 2;
                    spec.keep_records = false;
                    // Everything asks for the GPU, and HBM is then cut
                    // to half the weights the first compile kept there,
                    // so capacity enforcement has to spill.
                    spec.policy = placement::Policy{0.0, 0.0, 100.0, false};
                    SCOPED_TRACE(config.name + (int4 ? " int4 " : " fp16 ") +
                                 shard_name(shard) + " " +
                                 placement::placement_kind_name(kind) +
                                 " batch " + std::to_string(spec.batch) +
                                 "x" + std::to_string(spec.micro_batches));
                    const CompiledSchedule roomy = check_compile(spec, shard);
                    spec.gpu.hbm_capacity =
                        roomy.budget.used() - roomy.budget.gpu_weights / 2;
                    const CompiledSchedule tight = check_compile(spec, shard);
                    spilled += tight.spill.spilled_weights > 0 ? 1 : 0;
                }
            }
        }
    }
    EXPECT_GE(spilled, 16);

    // Near-data decode: FFN steps offload to the NDP-DIMM's units.
    int ndp_steps = 0;
    for (const model::TransformerConfig &config : models) {
        for (const bool int4 : {false, true}) {
            ServingSpec spec;
            spec.model = config;
            spec.memory = "NDP-DIMM";
            spec.placement = placement::PlacementKind::kAllCpu;
            spec.compute_site = placement::ComputeSiteMode::kNdpAuto;
            spec.compress_weights = int4;
            spec.batch = static_cast<std::uint64_t>(rng.next_in_range(1, 8));
            spec.micro_batches =
                static_cast<std::uint64_t>(rng.next_in_range(2, 4));
            spec.shape = {64, 6};
            spec.keep_records = false;
            SCOPED_TRACE(config.name + (int4 ? " int4" : " fp16") +
                         " on NDP-DIMM");
            const CompiledSchedule compiled = check_compile(spec, {});
            for (std::uint64_t k = 0; k < compiled.step_count(); ++k)
                ndp_steps += compiled.step(k).site == ComputeSite::kNdp;
        }
    }
    EXPECT_GT(ndp_steps, 0);
}

} // namespace
} // namespace helm::runtime
