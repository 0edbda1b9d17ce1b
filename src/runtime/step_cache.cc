#include "runtime/step_cache.h"

#include <cstdio>

#include "telemetry/metrics.h"

namespace helm::runtime {

namespace {

/** Append "tag=value;" with doubles at full round-trip precision. */
void
append_double(std::string &key, const char *tag, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", tag, value);
    key += buf;
}

void
append_u64(std::string &key, const char *tag, std::uint64_t value)
{
    key += tag;
    key += '=';
    key += std::to_string(value);
    key += ';';
}

void
append_bool(std::string &key, const char *tag, bool value)
{
    key += tag;
    key += value ? "=1;" : "=0;";
}

/** Length-prefixed so a name containing delimiters cannot collide. */
void
append_string(std::string &key, const char *tag, const std::string &value)
{
    key += tag;
    key += '=';
    key += std::to_string(value.size());
    key += ':';
    key += value;
    key += ';';
}

void
append_model(std::string &key, const model::TransformerConfig &m)
{
    append_string(key, "model", m.name);
    append_u64(key, "hidden", m.hidden);
    append_u64(key, "ffn_hidden", m.ffn_hidden);
    append_u64(key, "heads", m.heads);
    append_u64(key, "blocks", m.blocks);
    append_u64(key, "vocab", m.vocab);
    append_u64(key, "max_seq", m.max_seq);
    append_u64(key, "kv_heads", m.kv_heads);
    append_bool(key, "biases", m.has_biases);
    append_bool(key, "pos_emb", m.has_pos_embedding);
    append_bool(key, "norm_bias", m.norm_has_bias);
    append_bool(key, "gated_ffn", m.gated_ffn);
}

void
append_gpu(std::string &key, const gpu::GpuSpec &g)
{
    append_string(key, "gpu", g.name);
    append_u64(key, "hbm", g.hbm_capacity);
    append_double(key, "hbm_bw", g.hbm_bandwidth.raw());
    append_double(key, "flops", g.peak_fp16_flops);
    append_double(key, "gemm_eff", g.gemm_efficiency);
    append_double(key, "hbm_eff", g.hbm_efficiency);
    append_double(key, "dequant_bw", g.dequant_bandwidth.raw());
    append_double(key, "overhead", g.layer_overhead);
    append_u64(key, "reserve", g.base_reserve);
}

void
append_kv_config(std::string &key, const kvcache::KvCacheConfig &kv)
{
    append_u64(key, "kv_block_tokens", kv.block_tokens);
    append_u64(key, "kv_eviction",
               static_cast<std::uint64_t>(kv.eviction));
    append_bool(key, "kv_prefetch", kv.prefetch);
    append_u64(key, "kv_tiers", kv.tiers.size());
    for (const auto &tier : kv.tiers) {
        append_string(key, "tier", tier.name);
        append_u64(key, "cap", tier.capacity);
        append_bool(key, "gpu", tier.is_gpu);
        append_bool(key, "auto", tier.auto_capacity);
        append_double(key, "read_bw", tier.read_bw.raw());
        append_double(key, "write_bw", tier.write_bw.raw());
    }
}

} // namespace

std::string
spec_cache_key(const ServingSpec &spec)
{
    std::string key;
    key.reserve(512);
    append_model(key, spec.model);
    append_string(key, "memory", spec.memory.name());
    append_bool(key, "custom_cxl", spec.memory.is_custom_cxl());
    if (spec.memory.is_custom_cxl())
        append_double(key, "cxl_bw", spec.memory.cxl_read_bandwidth().raw());
    append_u64(key, "placement",
               static_cast<std::uint64_t>(spec.placement));
    append_bool(key, "has_policy", spec.policy.has_value());
    if (spec.policy.has_value()) {
        append_double(key, "p_disk", spec.policy->disk_percent);
        append_double(key, "p_cpu", spec.policy->cpu_percent);
        append_double(key, "p_gpu", spec.policy->gpu_percent);
        append_bool(key, "p_compress", spec.policy->compress_weights);
    }
    append_bool(key, "has_splits", spec.helm_splits.has_value());
    if (spec.helm_splits.has_value()) {
        for (int i = 0; i < placement::kNumTiers; ++i) {
            append_double(key, "mha", spec.helm_splits->mha[i]);
            append_double(key, "ffn", spec.helm_splits->ffn[i]);
        }
    }
    append_bool(key, "compress", spec.compress_weights);
    append_u64(key, "batch", spec.batch);
    append_u64(key, "micro", spec.micro_batches);
    append_bool(key, "has_kv", spec.kv_cache.has_value());
    if (spec.kv_cache.has_value())
        append_kv_config(key, *spec.kv_cache);
    append_u64(key, "prompt", spec.shape.prompt_tokens);
    append_u64(key, "output", spec.shape.output_tokens);
    append_u64(key, "repeats", spec.repeats);
    append_gpu(key, spec.gpu);
    append_u64(key, "pcie_gen",
               static_cast<std::uint64_t>(spec.pcie.generation()));
    append_u64(key, "pcie_lanes",
               static_cast<std::uint64_t>(spec.pcie.lanes()));
    append_u64(key, "site", static_cast<std::uint64_t>(spec.compute_site));
    append_bool(key, "enforce_cap", spec.enforce_gpu_capacity);
    return key;
}

void
StepScheduleCache::record(telemetry::MetricsRegistry &reg) const
{
    reg.counter("helm_stepcache_hits", {{"stage", "engine"}},
                "Steady-state timelines replayed from the step-schedule "
                "cache instead of re-simulated")
        .add(static_cast<double>(hits()));
    reg.counter("helm_stepcache_misses", {{"stage", "engine"}},
                "Distinct steady-state timelines simulated and cached")
        .add(static_cast<double>(misses()));
}

StepScheduleCache &
step_cache()
{
    static StepScheduleCache cache;
    return cache;
}

void
set_step_cache_enabled(bool on)
{
    step_cache().set_enabled(on);
}

bool
step_cache_enabled()
{
    return step_cache().enabled();
}

} // namespace helm::runtime
