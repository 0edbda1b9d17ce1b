#include "runtime/schedule.h"

#include <algorithm>
#include <array>
#include <utility>

#include "mem/registry.h"
#include "model/footprint.h"
#include "placement/balanced.h"
#include "placement/baseline.h"
#include "placement/helm_placement.h"

namespace helm::runtime {

using placement::Tier;

namespace {

/** The roofline input of every layer of @p type in @p spec at
 *  (@p stage, @p context): layers of one type do the same work. */
gpu::LayerWork
layer_work(const ServingSpec &spec, model::LayerType type, gpu::Stage stage,
           std::uint64_t context)
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

/** ceil(a / b) for shard slicing. */
std::uint64_t
ceil_div(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Shard-local validity checks (the base spec was validated by the
 *  cluster layer against the unsharded model). */
Status
validate_shard(const ServingSpec &spec, const ShardOptions &shard,
               std::uint64_t num_layers)
{
    if (shard.kind == ShardOptions::Kind::kNone)
        return Status::ok();
    if (shard.count < 1)
        return Status::invalid_argument("shard count must be >= 1");
    if (shard.index >= shard.count)
        return Status::invalid_argument("shard index out of range");
    if (shard.kind == ShardOptions::Kind::kPipeline) {
        if (shard.layer_begin >= shard.layer_end ||
            shard.layer_end > num_layers) {
            return Status::invalid_argument(
                "pipeline shard layer range [" +
                std::to_string(shard.layer_begin) + ", " +
                std::to_string(shard.layer_end) +
                ") is empty or exceeds " + std::to_string(num_layers) +
                " layers");
        }
    }
    // Shards skip the full-model floor check in ServingSpec::validate()
    // (a model that only fits when sharded is the point); field-range
    // checks still apply.
    ServingSpec relaxed = spec;
    relaxed.enforce_gpu_capacity = false;
    return relaxed.validate();
}

} // namespace

Result<ShardGeometry>
shard_geometry(const ServingSpec &spec, const ShardOptions &shard)
{
    const model::DataType dtype = spec.compress_weights
                                      ? model::DataType::kInt4Grouped
                                      : model::DataType::kFp16;
    ShardGeometry geo;
    geo.layers = model::build_layers(spec.model, dtype);
    geo.kv_model = spec.model;
    HELM_RETURN_IF_ERROR(validate_shard(spec, shard, geo.layers.size()));
    if (shard.kind == ShardOptions::Kind::kTensor && shard.count > 1) {
        // Megatron-style column/row splits: every matrix weight is cut
        // 1/count; bias, norm, and embedding-adjacent vectors replicate.
        for (auto &layer : geo.layers) {
            for (auto &weight : layer.weights) {
                if (model::is_matrix_role(weight.role))
                    weight.elements = ceil_div(weight.elements, shard.count);
            }
        }
        geo.kv_model.kv_heads =
            ceil_div(geo.kv_model.effective_kv_heads(), shard.count);
        geo.compute_scale = 1.0 / static_cast<double>(shard.count);
    } else if (shard.kind == ShardOptions::Kind::kPipeline) {
        geo.first_layer = shard.layer_begin;
        geo.layers.assign(geo.layers.begin() + static_cast<std::ptrdiff_t>(
                                                   shard.layer_begin),
                          geo.layers.begin() + static_cast<std::ptrdiff_t>(
                                                   shard.layer_end));
        std::uint64_t mha_layers = 0;
        for (const auto &layer : geo.layers) {
            if (layer.type == model::LayerType::kMha)
                ++mha_layers;
        }
        geo.kv_model.blocks = std::max<std::uint64_t>(mha_layers, 1);
    }
    return geo;
}

Result<CompiledSchedule>
compile_schedule(const ServingSpec &spec, const ShardOptions &shard)
{
    // ---- Validation, model + shard slice -------------------------------
    // An unsharded spec gets ServingSpec::validate()'s checks in its
    // order — fields and host, then the zero-resident-weight floor — but
    // the floor reads the layer list built here instead of a second one.
    const bool sharded = shard.kind != ShardOptions::Kind::kNone;
    if (!sharded) {
        HELM_RETURN_IF_ERROR(spec.validate_fields());
    }
    auto geo_or = shard_geometry(spec, shard);
    if (!geo_or.is_ok())
        return geo_or.status();
    auto layers = std::move(geo_or->layers);
    // Every budget below sizes its staging from these maxima.
    const StagingSizes staging(layers);
    if (!sharded) {
        HELM_RETURN_IF_ERROR(spec.check_gpu_floor(staging));
    }
    const model::TransformerConfig kv_model = geo_or->kv_model;
    const std::uint64_t first_layer = geo_or->first_layer;
    const double compute_scale = geo_or->compute_scale;

    auto system_or = mem::make_system(spec.memory, spec.pcie);
    if (!system_or.is_ok())
        return system_or.status();
    mem::HostMemorySystem system = std::move(*system_or);
    const placement::Policy policy =
        spec.policy.value_or(default_policy(system));

    const std::uint64_t effective_requests =
        spec.batch * spec.micro_batches;
    // Block schedule: one weight load serves micro_batches back-to-back
    // executions of the layer.
    const double per_step =
        static_cast<double>(spec.micro_batches) * compute_scale;
    // Placement and site choice judge a layer on the latency-critical
    // decode stage, mid-context.
    const std::uint64_t mid_context =
        spec.shape.prompt_tokens + spec.shape.output_tokens / 2;
    placement::PlacementMap map;
    switch (spec.placement) {
      case placement::PlacementKind::kBaseline:
        map = placement::place_baseline(layers, policy);
        break;
      case placement::PlacementKind::kHelm:
        map = placement::place_helm(
            layers, policy,
            spec.helm_splits.value_or(placement::HelmSplits{}));
        break;
      case placement::PlacementKind::kAllCpu:
        map = placement::place_all_cpu(layers);
        break;
      case placement::PlacementKind::kBalanced: {
        // Profile-guided placement: feed the solver the decode-stage
        // compute windows (the latency-critical stage), the effective
        // transfer bandwidth, and the planner's weight budget.
        placement::BalanceProfile profile;
        profile.compute_times.reserve(layers.size());
        for (const auto &layer : layers) {
            const gpu::LayerWork work = layer_work(
                spec, layer.type, gpu::Stage::kDecode, mid_context);
            profile.compute_times.push_back(
                per_step * gpu::layer_compute_time(spec.gpu, work) +
                spec.gpu.layer_overhead);
        }
        // Representative transfer rate: a mid-sized weight chunk on
        // the resolved system (no resident set applied yet).
        profile.transfer_bandwidth = system.host_to_gpu_bw(512 * kMiB);
        profile.gpu_weight_budget = gpu_weight_budget(
            spec.gpu, kv_model, staging, spec.shape, effective_requests,
            spec.compress_weights, spec.kv_resident_on_gpu());
        map = placement::place_balanced(layers, profile);
        break;
      }
    }

    // ---- GPU capacity enforcement --------------------------------------
    const std::uint64_t effective_batch = effective_requests;
    const bool kv_on_gpu = spec.kv_resident_on_gpu();
    placement::SpillReport spill;
    if (spec.enforce_gpu_capacity) {
        const Bytes weight_budget = gpu_weight_budget(
            spec.gpu, kv_model, staging, spec.shape, effective_batch,
            spec.compress_weights, kv_on_gpu);
        spill = placement::enforce_gpu_capacity(map, layers, weight_budget);
    }
    const Bytes gpu_weights = map.tier_total(Tier::kGpu);
    const GpuBudget budget = compute_gpu_budget(
        spec.gpu, kv_model, staging, gpu_weights, spec.shape,
        effective_batch, spec.compress_weights, kv_on_gpu);
    if (!budget.fits()) {
        return Status::capacity_exceeded(
            "configuration does not fit in GPU memory even after weight "
            "spilling: " + std::to_string(effective_batch) +
            " concurrent requests need " + format_bytes(budget.used()) +
            " of " + format_bytes(budget.hbm_capacity));
    }

    if (map.tier_total(Tier::kDisk) > 0 && !system.has_storage()) {
        return Status::invalid_argument(
            "placement assigns weights to the disk tier but memory "
            "configuration '" + system.label() + "' has no storage tier");
    }

    // ---- KV cache tiers ---------------------------------------------------
    // Resolve the managed configuration: the GPU tier's auto capacity is
    // whatever HBM the planner leaves free at this batch (the batch's
    // hidden/staging/streaming buffers are already budgeted above).
    kvcache::KvCacheConfig kv_config = spec.kv_config();
    for (kvcache::TierSpec &tier : kv_config.tiers) {
        if (!tier.is_gpu)
            continue;
        if (tier.auto_capacity) {
            tier.capacity = std::max<Bytes>(budget.free_bytes(), 1);
            tier.auto_capacity = false;
        } else if (tier.capacity > 0 && spec.enforce_gpu_capacity) {
            tier.capacity = std::max<Bytes>(
                std::min(tier.capacity, budget.free_bytes()), 1);
        }
    }
    auto kv_manager_or =
        kvcache::KvCacheManager::create(kv_config, kv_model);
    if (!kv_manager_or.is_ok())
        return kv_manager_or.status();
    kvcache::KvCacheManager &kv_manager = *kv_manager_or;

    // MemoryMode/Optane: the cycled working set is the host-resident
    // weights plus the host-resident share of the KV cache (the
    // GPU-tier overflow; all of it for legacy_offload's lone host tier).
    Bytes resident = map.tier_total(Tier::kCpu);
    if (spec.kv_cache.has_value()) {
        const Bytes total_kv = model::kv_bytes_batch(
            kv_model, spec.shape, effective_batch);
        Bytes gpu_kv = 0;
        bool gpu_unbounded = false;
        for (const kvcache::TierSpec &tier : kv_config.tiers) {
            if (tier.is_gpu) {
                gpu_kv = tier.capacity;
                gpu_unbounded = tier.capacity == 0;
            }
        }
        if (!gpu_unbounded && total_kv > gpu_kv)
            resident += total_kv - gpu_kv;
    }
    system.set_host_resident_bytes(resident);

    // ---- Compute sites ---------------------------------------------------
    // Per-layer GPU-vs-NDP verdicts.  Empty (= all-GPU) on the default
    // path so the rows below are bit-for-bit the pre-zoo code.
    std::vector<placement::SiteDecision> sites;
    placement::NdpProfile ndp_profile;
    if (spec.compute_site != placement::ComputeSiteMode::kGpuOnly) {
        const auto *ndp =
            dynamic_cast<const mem::NdpDimmDevice *>(system.host().get());
        if (ndp == nullptr) {
            return Status::invalid_argument(
                "compute site '" +
                std::string(
                    placement::compute_site_mode_name(spec.compute_site)) +
                "' requires an NDP-capable host tier, but device '" +
                system.label() + "' has no near-data compute units");
        }
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
            const gpu::LayerWork decode = layer_work(
                spec, layers[li].type, gpu::Stage::kDecode, mid_context);
            work.flops = per_step * gpu::layer_flops(decode);
            work.gpu_compute =
                per_step * gpu::layer_compute_time(spec.gpu, decode) +
                spec.gpu.layer_overhead;
        }
        sites = placement::assign_compute_sites(site_work, ndp_profile,
                                                spec.compute_site);
    }

    // ---- Layer rows ------------------------------------------------------
    // A layer's weight bytes, transfer caps and site depend only on the
    // layer, whatever the token.
    const std::uint64_t num_layers = layers.size();
    const std::uint64_t tokens = spec.shape.output_tokens;
    std::vector<LayerRow> layer_rows(num_layers);
    for (std::uint64_t li = 0; li < num_layers; ++li) {
        LayerRow &row = layer_rows[li];
        const placement::LayerPlacement &lp = map.layers[li];
        row.layer = static_cast<int>(first_layer + li);
        row.type = layers[li].type;
        row.cpu_bytes = lp.bytes_on(Tier::kCpu);
        row.disk_bytes = lp.bytes_on(Tier::kDisk);
        if (row.cpu_bytes > 0)
            row.cpu_cap = system.host_to_gpu_bw(row.cpu_bytes);
        if (row.disk_bytes > 0)
            row.disk_cap = system.storage_to_gpu_bw(row.disk_bytes);
        if (!sites.empty())
            row.site = sites[li].site;
        // Every MHA layer moves the same KV bytes: the context streams
        // in from the host tiers (decode) and new K/V entries + demoted
        // blocks drain out (both stages).
        row.moves_kv = row.type == model::LayerType::kMha;
    }

    // ---- Token rows ------------------------------------------------------
    std::vector<TokenRow> token_rows;
    const std::uint64_t row_count = spec.repeats * tokens;
    HELM_RETURN_IF_ERROR(allocate_per_step(row_count, "token rows", [&] {
        token_rows.reserve(row_count);
    }));
    // Per-tier occupancy is sampled for trace counters only when some
    // tier is off the GPU; for GPU-only configs it would be flat.
    bool has_host_tier = false;
    for (std::size_t t = 0; t < kv_manager.tier_count(); ++t)
        has_host_tier |= !kv_manager.tier(t).is_gpu;

    for (std::uint64_t rep = 0; rep < spec.repeats; ++rep) {
        // Each repeat is a fresh batch: the previous batch's blocks
        // free and the new requests allocate from a clean placement.
        kv_manager.reset_requests();
        for (std::uint64_t r = 0; r < effective_batch; ++r)
            HELM_RETURN_IF_ERROR(kv_manager.add_request(r));
        for (std::uint64_t tok = 0; tok < tokens; ++tok) {
            TokenRow &row = token_rows.emplace_back();
            row.batch_index = rep;
            row.token = tok;
            row.stage = tok == 0 ? gpu::Stage::kPrefill : gpu::Stage::kDecode;

            // Advance the KV manager one token for the whole batch and
            // turn its per-tier demand into capped flows.  Prefill skips
            // the context fetch — the K/V it attends to was computed on
            // the GPU this very step.
            const bool decode = row.stage == gpu::Stage::kDecode;
            auto traffic_or =
                kv_manager.step(decode ? 1 : spec.shape.prompt_tokens, decode);
            if (!traffic_or.is_ok())
                return traffic_or.status();
            const kvcache::StepTraffic &traffic = *traffic_or;
            KvTraffic &kv = row.kv;
            // Sample per-tier occupancy right after the cache update so
            // trace counters can plot tier fill over time.
            if (has_host_tier) {
                kv.occupancy.reserve(kv_manager.tier_count());
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

            // The roofline runs once per layer type, not once per layer.
            const bool ndp_token = !sites.empty() && decode;
            for (const model::LayerType type : kLayerTypes) {
                const gpu::LayerWork work = layer_work(
                    spec, type, row.stage, spec.shape.prompt_tokens + tok);
                const auto t = static_cast<std::size_t>(type);
                row.compute[t] =
                    per_step * gpu::layer_compute_time(spec.gpu, work);
                if (ndp_token)
                    row.ndp_flops[t] = per_step * gpu::layer_flops(work);
            }
        }
    }

    CompiledSchedule compiled;
    compiled.layer_rows = std::move(layer_rows);
    compiled.token_rows = std::move(token_rows);
    compiled.kv_prefetch = kv_config.prefetch;
    compiled.micro_batches = spec.micro_batches;
    compiled.ndp_profile = ndp_profile;
    compiled.placement = std::move(map);
    compiled.spill = spill;
    compiled.budget = budget;
    compiled.model_bytes = model::model_weight_bytes(layers);
    compiled.kv_stats = kv_manager.stats();
    compiled.system = std::move(system);
    compiled.kv_tier_names.reserve(kv_manager.tier_count());
    for (std::size_t t = 0; t < kv_manager.tier_count(); ++t)
        compiled.kv_tier_names.push_back(kv_manager.tier(t).name);
    compiled.tokens = tokens;
    compiled.effective_batch = effective_batch;
    compiled.host_resident_bytes = resident;
    compiled.host_weight_bytes = compiled.placement.tier_total(Tier::kCpu);
    return compiled;
}

ScheduledStep
CompiledSchedule::step(std::uint64_t k) const
{
    const std::uint64_t L = layer_rows.size();
    const std::uint64_t t = k / L;
    const LayerRow &layer = layer_rows[k % L];
    const TokenRow &token = token_rows[t];
    ScheduledStep step;
    step.batch_index = token.batch_index;
    step.token = token.token;
    step.layer = layer.layer;
    step.type = layer.type;
    step.stage = token.stage;
    step.compute = compute(layer, token);
    step.cpu_bytes = h2d_bytes(layer, token);
    step.disk_bytes = layer.disk_bytes;
    if (near_data(layer, token)) {
        step.site = placement::ComputeSite::kNdp;
        step.ndp_bytes = layer.cpu_bytes;
    }
    if (step.cpu_bytes > 0)
        step.cpu_cap = layer.cpu_cap;
    step.disk_cap = layer.disk_cap;
    if (layer.moves_kv) {
        step.kv = static_cast<std::uint32_t>(t);
        step.kv_prefetch = kv_prefetch;
    }
    return step;
}

bool
CompiledSchedule::moves_kv() const
{
    bool any_layer = false;
    for (const LayerRow &layer : layer_rows)
        any_layer |= layer.moves_kv;
    if (!any_layer)
        return false;
    for (const TokenRow &token : token_rows) {
        if (!token.kv.reads.empty() || !token.kv.writes.empty())
            return true;
    }
    return false;
}

} // namespace helm::runtime
