#include "runtime/planner.h"

#include <algorithm>

#include "common/status.h"

namespace helm::runtime {

StagingSizes::StagingSizes(const std::vector<model::LayerSpec> &layers)
{
    for (const auto &layer : layers) {
        Bytes fp16 = 0;
        Bytes stored = 0;
        for (const auto &w : layer.weights) {
            fp16 += w.fp16_bytes();
            stored += w.bytes();
        }
        max_fp16 = std::max(max_fp16, fp16);
        max_stored = std::max(max_stored, stored);
    }
}

Bytes
attention_scratch_bytes(const model::TransformerConfig &config,
                        const model::SequenceShape &shape,
                        std::uint64_t batch)
{
    // FP32 score matrix: batch x heads x prompt x prompt during prefill
    // (decode's batch x heads x 1 x ctx is strictly smaller).
    return batch * config.heads * shape.prompt_tokens *
           shape.prompt_tokens * 4;
}

GpuBudget
compute_gpu_budget(const gpu::GpuSpec &gpu,
                   const model::TransformerConfig &config,
                   const StagingSizes &staging,
                   Bytes gpu_weight_bytes,
                   const model::SequenceShape &shape, std::uint64_t batch,
                   bool compressed, bool kv_on_gpu)
{
    GpuBudget budget;
    budget.hbm_capacity = gpu.hbm_capacity;
    budget.base_reserve = gpu.base_reserve;
    // Uncompressed: one largest-layer FP16 buffer stages the in-flight
    // transfer.  Compressed: a second FP16 dequantization workspace plus
    // double-buffered compressed streams join it.
    budget.staging = staging.max_fp16;
    if (compressed)
        budget.staging += staging.max_fp16 + 2 * staging.max_stored;
    budget.gpu_weights = gpu_weight_bytes;
    if (kv_on_gpu) {
        budget.kv_cache = model::kv_bytes_batch(config, shape, batch);
    } else {
        // Offloaded cache: only a double-buffered per-layer streaming
        // window (one block's K/V for the whole batch) stays resident.
        budget.kv_cache =
            2 * batch *
            model::kv_bytes_per_block(config, shape.max_context());
    }
    budget.hidden = model::hidden_bytes_batch(config, shape, batch);
    budget.attention_scratch =
        attention_scratch_bytes(config, shape, batch);
    return budget;
}

Bytes
gpu_weight_budget(const gpu::GpuSpec &gpu,
                  const model::TransformerConfig &config,
                  const StagingSizes &staging,
                  const model::SequenceShape &shape, std::uint64_t batch,
                  bool compressed, bool kv_on_gpu)
{
    const GpuBudget budget = compute_gpu_budget(
        gpu, config, staging, /*gpu_weight_bytes=*/0, shape, batch,
        compressed, kv_on_gpu);
    const Bytes fixed = budget.used();
    if (fixed >= gpu.hbm_capacity)
        return 0;
    return gpu.hbm_capacity - fixed;
}

std::uint64_t
max_batch(const gpu::GpuSpec &gpu, const model::TransformerConfig &config,
          const StagingSizes &staging,
          Bytes gpu_weight_bytes, const model::SequenceShape &shape,
          bool compressed, std::uint64_t limit, bool kv_on_gpu)
{
    HELM_ASSERT(limit >= 1, "max_batch limit must be >= 1");
    auto fits = [&](std::uint64_t batch) {
        return compute_gpu_budget(gpu, config, staging, gpu_weight_bytes,
                                  shape, batch, compressed, kv_on_gpu)
            .fits();
    };
    if (!fits(1))
        return 0;
    // Exponential probe then binary search; KV grows linearly in batch so
    // feasibility is monotone.
    std::uint64_t lo = 1, hi = 1;
    while (hi < limit && fits(std::min(hi * 2, limit)))
        hi = std::min(hi * 2, limit);
    if (hi >= limit && fits(limit))
        return limit;
    std::uint64_t bad = std::min(hi * 2, limit);
    lo = hi;
    while (lo + 1 < bad) {
        const std::uint64_t mid = lo + (bad - lo) / 2;
        if (fits(mid))
            lo = mid;
        else
            bad = mid;
    }
    return lo;
}

} // namespace helm::runtime
