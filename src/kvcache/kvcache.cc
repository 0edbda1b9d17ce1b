#include "kvcache/kvcache.h"

#include <algorithm>
#include <limits>

#include "common/args.h"
#include "model/footprint.h"

namespace helm::kvcache {

const char *
eviction_policy_name(EvictionPolicy policy)
{
    switch (policy) {
      case EvictionPolicy::kLru:
        return "lru";
      case EvictionPolicy::kLongestContextFirst:
        return "longest-context";
    }
    return "unknown";
}

Result<EvictionPolicy>
parse_eviction_policy(const std::string &name)
{
    if (iequals(name, "lru"))
        return EvictionPolicy::kLru;
    if (iequals(name, "longest-context") || iequals(name, "longest"))
        return EvictionPolicy::kLongestContextFirst;
    return Status::not_found("unknown eviction policy: " + name +
                             " (lru, longest-context)");
}

Status
KvCacheConfig::validate() const
{
    if (block_tokens < 1)
        return Status::invalid_argument("block_tokens must be >= 1");
    if (tiers.empty())
        return Status::invalid_argument("KV cache needs at least one tier");
    for (std::size_t i = 0; i < tiers.size(); ++i) {
        const TierSpec &t = tiers[i];
        if (t.name.empty())
            return Status::invalid_argument("KV tier names must be set");
        if (t.is_gpu && i != 0) {
            return Status::invalid_argument(
                "the GPU tier must be the first (preferred) tier");
        }
        if (t.auto_capacity && !t.is_gpu) {
            return Status::invalid_argument(
                "auto_capacity is only meaningful for the GPU tier");
        }
        for (std::size_t j = i + 1; j < tiers.size(); ++j) {
            if (tiers[j].name == t.name) {
                return Status::invalid_argument("duplicate KV tier name: " +
                                                t.name);
            }
        }
    }
    return Status::ok();
}

KvCacheConfig
KvCacheConfig::gpu_only()
{
    KvCacheConfig config;
    TierSpec gpu;
    gpu.name = "gpu";
    gpu.is_gpu = true;
    config.tiers.push_back(gpu);
    return config;
}

KvCacheConfig
KvCacheConfig::legacy_offload()
{
    KvCacheConfig config;
    TierSpec host;
    host.name = "host";
    config.tiers.push_back(host);
    return config;
}

KvCacheConfig
KvCacheConfig::tiered(Bytes host_capacity)
{
    KvCacheConfig config;
    TierSpec gpu;
    gpu.name = "gpu";
    gpu.is_gpu = true;
    gpu.auto_capacity = true;
    TierSpec host;
    host.name = "host";
    host.capacity = host_capacity;
    config.tiers = {gpu, host};
    return config;
}

KvCacheManager::KvCacheManager(KvCacheConfig config,
                               Bytes token_layer_bytes,
                               std::uint64_t mha_layers)
    : config_(std::move(config)),
      token_layer_bytes_(token_layer_bytes),
      mha_layers_(mha_layers),
      block_bytes_(config_.block_tokens * token_layer_bytes * mha_layers)
{
    stats_.tiers.resize(config_.tiers.size());
    for (std::size_t i = 0; i < config_.tiers.size(); ++i) {
        stats_.tiers[i].name = config_.tiers[i].name;
        stats_.tiers[i].capacity = config_.tiers[i].capacity;
    }
}

Result<KvCacheManager>
KvCacheManager::create(KvCacheConfig config,
                       const model::TransformerConfig &model)
{
    HELM_RETURN_IF_ERROR(config.validate());
    if (model.hidden == 0 || model.blocks == 0)
        return Status::invalid_argument("model config is incomplete");
    // K + V for one token of one decoder block (4 x kv_dim at FP16).
    const Bytes token_layer = model::kv_bytes_per_block(model, 1);
    for (const TierSpec &tier : config.tiers) {
        // A GPU tier squeezed below one block just never holds KV; a
        // host tier that small is a configuration mistake.
        if (tier.is_gpu)
            continue;
        if (tier.capacity > 0 &&
            tier.capacity < config.block_tokens * token_layer * model.blocks) {
            return Status::invalid_argument(
                "KV tier '" + tier.name + "' capacity " +
                format_bytes(tier.capacity) + " holds no block (block = " +
                format_bytes(config.block_tokens * token_layer *
                             model.blocks) +
                ")");
        }
    }
    return KvCacheManager(std::move(config), token_layer, model.blocks);
}

std::uint64_t
KvCacheManager::blocks_for_tokens(std::uint64_t tokens) const
{
    return (tokens + config_.block_tokens - 1) / config_.block_tokens;
}

std::uint64_t
KvCacheManager::request_slots(std::uint64_t max_context,
                              std::uint64_t limit) const
{
    const std::uint64_t per_request = blocks_for_tokens(max_context);
    if (per_request == 0)
        return limit;
    std::uint64_t total_blocks = 0;
    for (const TierSpec &tier : config_.tiers) {
        if (tier.capacity == 0)
            return limit; // an unbounded tier absorbs any context
        total_blocks += tier.capacity / block_bytes_;
    }
    return std::min(limit, total_blocks / per_request);
}

Status
KvCacheManager::add_request(std::uint64_t id)
{
    if (requests_.count(id) > 0) {
        return Status::invalid_argument("request " + std::to_string(id) +
                                        " already holds KV blocks");
    }
    requests_.emplace(id, RequestState{});
    return Status::ok();
}

bool
KvCacheManager::tier_fits_block(std::size_t tier) const
{
    const TierSpec &spec = config_.tiers[tier];
    if (spec.capacity == 0)
        return true;
    return tier_occupancy(tier) + block_bytes_ <= spec.capacity;
}

bool
KvCacheManager::pick_victim(std::size_t tier, std::uint64_t *request_id,
                            std::size_t *block_index) const
{
    const BlockState *victim = nullptr;
    if (config_.eviction == EvictionPolicy::kLongestContextFirst) {
        // Victim owner: the request holding the most context (ties to
        // the larger id); victim block: its oldest block on the tier.
        const RequestState *owner = nullptr;
        for (const auto &[rid, request] : requests_) {
            bool resident = false;
            for (const BlockState &block : request.blocks)
                resident |= block.tier == tier;
            if (!resident)
                continue;
            if (owner == nullptr || request.tokens >= owner->tokens) {
                owner = &request;
                *request_id = rid;
            }
        }
        if (owner == nullptr)
            return false;
        for (std::size_t bi = 0; bi < owner->blocks.size(); ++bi) {
            if (owner->blocks[bi].tier == tier) {
                *block_index = bi;
                return true;
            }
        }
        return false;
    }
    // LRU: least-recently-touched block; ties break toward the lowest
    // (request id, block index) — the oldest K/V entries.
    for (const auto &[rid, request] : requests_) {
        for (std::size_t bi = 0; bi < request.blocks.size(); ++bi) {
            const BlockState &candidate = request.blocks[bi];
            if (candidate.tier != tier)
                continue;
            if (victim == nullptr ||
                candidate.last_touch < victim->last_touch) {
                victim = &candidate;
                *request_id = rid;
                *block_index = bi;
            }
        }
    }
    return victim != nullptr;
}

Result<std::size_t>
KvCacheManager::allocate_block(StepTraffic *traffic)
{
    // Preferred tier first; if it is full, demote a victim block to the
    // first lower tier with space and place the fresh (hot) block on top.
    if (!tier_fits_block(0) && config_.tiers.size() > 1) {
        std::uint64_t victim_request = 0;
        std::size_t victim_index = 0;
        if (pick_victim(0, &victim_request, &victim_index)) {
            std::size_t target = config_.tiers.size();
            for (std::size_t j = 1; j < config_.tiers.size(); ++j) {
                if (tier_fits_block(j)) {
                    target = j;
                    break;
                }
            }
            if (target < config_.tiers.size()) {
                BlockState &victim =
                    requests_.at(victim_request).blocks[victim_index];
                const Bytes layer_bytes =
                    victim.tokens * token_layer_bytes_;
                if (!config_.tiers[target].is_gpu)
                    traffic->write_bytes[target] += layer_bytes;
                stats_.tiers[target].demoted_in_bytes +=
                    layer_bytes * mha_layers_;
                ++stats_.demotions;
                account_occupancy(victim.tier, -1);
                victim.tier = target;
                account_occupancy(target, +1);
            }
        }
    }
    for (std::size_t i = 0; i < config_.tiers.size(); ++i) {
        if (tier_fits_block(i)) {
            account_occupancy(i, +1);
            return i;
        }
    }
    return Status::capacity_exceeded(
        "KV cache exhausted: no tier can hold another block of " +
        format_bytes(block_bytes_));
}

Result<StepTraffic>
KvCacheManager::step(std::uint64_t new_tokens, bool count_reads)
{
    ++clock_;
    StepTraffic traffic;
    traffic.read_bytes.assign(config_.tiers.size(), 0);
    traffic.write_bytes.assign(config_.tiers.size(), 0);

    for (auto &[rid, request] : requests_) {
        std::uint64_t remaining = new_tokens;
        while (remaining > 0) {
            if (request.blocks.empty() ||
                request.blocks.back().tokens == config_.block_tokens) {
                const auto tier = allocate_block(&traffic);
                if (!tier.is_ok())
                    return tier.status();
                BlockState fresh;
                fresh.tier = *tier;
                request.blocks.push_back(fresh);
            }
            BlockState &block = request.blocks.back();
            const std::uint64_t fill = std::min(
                remaining, config_.block_tokens - block.tokens);
            block.tokens += fill;
            block.last_touch = clock_;
            request.tokens += fill;
            remaining -= fill;
            if (!config_.tiers[block.tier].is_gpu) {
                const Bytes layer_bytes = fill * token_layer_bytes_;
                traffic.write_bytes[block.tier] += layer_bytes;
                stats_.tiers[block.tier].write_bytes +=
                    layer_bytes * mha_layers_;
            }
        }
    }

    if (count_reads) {
        // Decode attention streams the whole context in; GPU-resident
        // blocks are free, host-resident blocks pay their tier's path.
        for (auto &[rid, request] : requests_) {
            for (BlockState &block : request.blocks) {
                block.last_touch = clock_;
                ++stats_.tiers[block.tier].lookups;
                if (config_.tiers[block.tier].is_gpu)
                    continue;
                const Bytes layer_bytes =
                    block.tokens * token_layer_bytes_;
                traffic.read_bytes[block.tier] += layer_bytes;
                stats_.tiers[block.tier].read_bytes +=
                    layer_bytes * mha_layers_;
            }
        }
    }
    return traffic;
}

void
KvCacheManager::reset_requests()
{
    for (const auto &[rid, request] : requests_) {
        for (const BlockState &block : request.blocks)
            account_occupancy(block.tier, -1);
    }
    requests_.clear();
}

Bytes
KvCacheManager::tier_occupancy(std::size_t i) const
{
    return stats_.tiers[i].occupancy;
}

void
KvCacheManager::account_occupancy(std::size_t tier,
                                  std::int64_t blocks_delta)
{
    TierStats &stats = stats_.tiers[tier];
    if (blocks_delta > 0) {
        stats.blocks += static_cast<std::uint64_t>(blocks_delta);
        stats.occupancy +=
            static_cast<Bytes>(blocks_delta) * block_bytes_;
        stats.peak_occupancy = std::max(stats.peak_occupancy,
                                        stats.occupancy);
    } else {
        const std::uint64_t drop =
            static_cast<std::uint64_t>(-blocks_delta);
        HELM_ASSERT(stats.blocks >= drop, "KV tier occupancy underflow");
        stats.blocks -= drop;
        stats.occupancy -= drop * block_bytes_;
    }
}

} // namespace helm::kvcache
