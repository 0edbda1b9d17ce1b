#include "runtime/engine.h"

#include <initializer_list>
#include <optional>
#include <span>
#include <utility>

#include "common/summary.h"
#include "mem/registry.h"
#include "runtime/executor.h"
#include "runtime/schedule.h"

namespace helm::runtime {

namespace {

/** The product of @p factors, or nullopt when it wraps 64 bits. */
std::optional<std::uint64_t>
checked_product(std::initializer_list<std::uint64_t> factors)
{
    std::uint64_t product = 1;
    for (const std::uint64_t factor : factors) {
        if (__builtin_mul_overflow(product, factor, &product))
            return std::nullopt;
    }
    return product;
}

} // namespace

placement::Policy
default_policy(const mem::HostMemorySystem &system)
{
    // Sec. V-A: (storage, host, GPU) = (65, 15, 20) when there is a
    // storage tier, (0, 80, 20) for host-memory configurations.
    return system.has_storage() ? placement::Policy::disk_offload()
                                : placement::Policy::host_offload();
}

Status
ServingSpec::validate() const
{
    HELM_RETURN_IF_ERROR(validate_fields());
    if (!enforce_gpu_capacity)
        return Status::ok();
    return check_gpu_floor(helm::model::build_layers(
        model, compress_weights ? helm::model::DataType::kInt4Grouped
                                : helm::model::DataType::kFp16));
}

Status
ServingSpec::validate_fields() const
{
    if (batch < 1)
        return Status::invalid_argument("batch must be >= 1");
    if (micro_batches < 1)
        return Status::invalid_argument("micro_batches must be >= 1");
    if (repeats < 1)
        return Status::invalid_argument("repeats must be >= 1");
    if (shape.prompt_tokens < 1 || shape.output_tokens < 1) {
        return Status::invalid_argument(
            "prompt and output token counts must be >= 1");
    }
    if (model.hidden == 0 || model.blocks == 0)
        return Status::invalid_argument("model config is incomplete");
    if (kv_cache.has_value())
        HELM_RETURN_IF_ERROR(kv_cache->validate());

    // The counts multiply into 64-bit byte and step totals.  A product
    // that wraps reads as a small number: it would pass the capacity
    // checks and then hang or exhaust memory being simulated.  Each
    // product below is a term of compute_gpu_budget() (the KV cache,
    // resident or as the offloaded double-buffered window; the hidden
    // state; the attention scratch) or the KV manager's total.
    const auto concurrent = checked_product({batch, micro_batches});
    const std::uint64_t prompt = shape.prompt_tokens;
    std::uint64_t context = 0;
    const bool bytes_fit =
        concurrent &&
        !__builtin_add_overflow(prompt, shape.output_tokens, &context) &&
        checked_product({*concurrent, context,
                         model::kv_bytes_total(model, 1)}) &&
        checked_product({2, *concurrent, context,
                         model::kv_bytes_per_block(model, 1)}) &&
        checked_product({*concurrent, prompt, model.hidden, 4}) &&
        checked_product({*concurrent, model.heads, prompt, prompt, 4});
    if (!bytes_fit) {
        return Status::capacity_exceeded(
            std::to_string(batch) + " x " + std::to_string(micro_batches) +
            " concurrent requests of " + std::to_string(prompt) + " + " +
            std::to_string(shape.output_tokens) +
            " tokens overflow a 64-bit count of KV cache and "
            "activation bytes");
    }
    // One schedule step per layer (two per decoder block, plus the two
    // embeddings) per token per repeat, and each fires at least one
    // event; past Fabric::kMaxEvents the run is a runaway anyway.
    const auto steps = checked_product(
        {repeats, shape.output_tokens, 2 * model.blocks + 2});
    if (!steps || *steps > Fabric::kMaxEvents) {
        return Status::invalid_argument(
            std::to_string(repeats) + " repeats x " +
            std::to_string(shape.output_tokens) + " tokens x " +
            std::to_string(2 * model.blocks + 2) +
            " layer steps exceed the simulator's " +
            std::to_string(Fabric::kMaxEvents) + "-event run limit");
    }

    // Host rules: the host must resolve (a known device, a positive
    // custom CXL bandwidth), the policy must not route weights to a
    // storage tier it lacks, and a compute site other than the GPU
    // needs near-data units to run on.
    auto system = mem::make_system(memory, pcie);
    if (!system.is_ok())
        return system.status();
    const placement::Policy effective =
        policy.value_or(default_policy(*system));
    HELM_RETURN_IF_ERROR(effective.validate());
    if (!system->has_storage() && effective.disk_percent > 0.0) {
        return Status::invalid_argument(
            "host memory '" + system->label() +
            "' has no storage tier but the policy assigns " +
            std::to_string(effective.disk_percent) +
            " % of weights to disk");
    }
    if (compute_site != placement::ComputeSiteMode::kGpuOnly &&
        system->host()->kind() != mem::MemoryKind::kNdpDimm) {
        return Status::invalid_argument(
            std::string("compute site '") +
            placement::compute_site_mode_name(compute_site) +
            "' needs an NDP-capable host (e.g. NDP-DIMM), but host "
            "memory '" + system->label() +
            "' has no near-data compute units");
    }
    return Status::ok();
}

Status
ServingSpec::check_gpu_floor(const StagingSizes &staging) const
{
    // KV/batch feasibility: capacity enforcement can spill every weight
    // off the GPU, but the KV cache, hidden state, and staging buffers
    // for the effective batch must still fit.
    if (!enforce_gpu_capacity)
        return Status::ok();
    const GpuBudget floor = compute_gpu_budget(
        gpu, model, staging, /*gpu_weight_bytes=*/0, shape,
        batch * micro_batches, compress_weights, kv_resident_on_gpu());
    // validate_fields() bounds each term; their sum may still wrap.
    Bytes used = 0;
    bool wrapped = false;
    for (const Bytes term : {floor.base_reserve, floor.staging,
                             floor.kv_cache, floor.hidden,
                             floor.attention_scratch})
        wrapped |= __builtin_add_overflow(used, term, &used);
    if (wrapped || !floor.fits()) {
        return Status::capacity_exceeded(
            "configuration does not fit in GPU memory even with zero "
            "resident weights: " +
            std::to_string(batch * micro_batches) +
            " concurrent requests need " +
            (wrapped ? std::string("more than 2^64 bytes")
                     : format_bytes(floor.used())) +
            " of " + format_bytes(floor.hbm_capacity));
    }
    return Status::ok();
}

kvcache::KvCacheConfig
ServingSpec::kv_config() const
{
    return kv_cache.value_or(kvcache::KvCacheConfig::gpu_only());
}

/** Compile, run the schedule (in closed form when it is single-flow,
 *  on the DES otherwise), derive metrics and records.  Nothing is kept
 *  between calls: a run depends on @p spec alone. */
Result<RunResult>
simulate_inference(const ServingSpec &spec)
{
    // ---- Compile: model, placement, KV tiers, layer and token rows -----
    auto compiled_or = compile_schedule(spec);
    if (!compiled_or.is_ok())
        return compiled_or.status();
    CompiledSchedule &compiled = *compiled_or;

    // ---- Run -------------------------------------------------------------
    Fabric fabric(1, spec.gpu, link_rates(compiled.system));
    const std::uint64_t steps = compiled.step_count();
    std::optional<Executor> executor;
    HELM_RETURN_IF_ERROR(allocate_per_step(steps, "step timings", [&] {
        executor.emplace(fabric, std::span(&compiled, 1));
    }));
    if (!executor->run_closed_form())
        HELM_RETURN_IF_ERROR(executor->run());
    BatchTimeline timeline;
    HELM_RETURN_IF_ERROR(allocate_per_step(steps, "step records", [&] {
        timeline = executor->timeline(spec.keep_records);
    }));

    // ---- Metrics ----------------------------------------------------------
    RunResult result;
    result.placement = std::move(compiled.placement);
    result.spill = compiled.spill;
    result.budget = compiled.budget;
    result.model_bytes = compiled.model_bytes;
    result.kv_stats = compiled.kv_stats;
    result.h2d_rate = fabric.h2d_rate();
    // Every NDP layer runs near-data on every decode token.
    std::uint64_t decode_tokens = 0;
    for (const TokenRow &token : compiled.token_rows)
        decode_tokens += token.stage == gpu::Stage::kDecode ? 1 : 0;
    for (const LayerRow &layer : compiled.layer_rows) {
        if (layer.site == placement::ComputeSite::kNdp) {
            result.ndp_steps += decode_tokens;
            result.ndp_bytes += layer.cpu_bytes * decode_tokens;
        }
    }

    TokenLatencies latencies = token_latencies(timeline);
    result.metrics.ttft = mean_discarding_first(latencies.ttft);
    result.metrics.tbt = mean_discarding_first(latencies.tbt);
    result.metrics.per_batch_ttft = std::move(latencies.ttft);
    result.metrics.per_batch_tbt = std::move(latencies.tbt);
    result.metrics.total_time = timeline.end;
    result.metrics.total_tokens =
        spec.repeats * compiled.effective_batch * compiled.tokens;
    result.metrics.throughput =
        static_cast<double>(result.metrics.total_tokens) / timeline.end;
    result.records = std::move(timeline.records);
    return result;
}

} // namespace helm::runtime
