/**
 * @file
 * GPU memory budgeting and maximum-batch planning.
 *
 * FlexGen fits, on the GPU, the GPU-tier weight partition, the KV cache
 * for the whole batch, the hidden state, attention scratch, and weight
 * staging buffers.  The planner answers two questions:
 *  - does a given (placement, batch) combination fit? (budget breakdown)
 *  - what is the largest batch that fits? (the paper's 8 -> 44 result)
 */
#ifndef HELM_RUNTIME_PLANNER_H
#define HELM_RUNTIME_PLANNER_H

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "gpu/gpu.h"
#include "model/footprint.h"
#include "model/transformer.h"
#include "placement/placement.h"

namespace helm::runtime {

/** Itemized GPU memory budget for one configuration. */
struct GpuBudget
{
    Bytes hbm_capacity = 0;
    Bytes base_reserve = 0;
    Bytes staging = 0;     //!< weight transfer (+ dequant) buffers
    Bytes gpu_weights = 0; //!< weights placed on the GPU tier
    Bytes kv_cache = 0;    //!< whole batch, max context
    Bytes hidden = 0;      //!< peak hidden-state bytes
    Bytes attention_scratch = 0; //!< FP32 score matrices during prefill

    Bytes
    used() const
    {
        return base_reserve + staging + gpu_weights + kv_cache + hidden +
               attention_scratch;
    }

    bool fits() const { return used() <= hbm_capacity; }

    /** Headroom (0 when over budget). */
    Bytes
    free_bytes() const
    {
        return fits() ? hbm_capacity - used() : 0;
    }
};

/**
 * The largest single-layer weight footprints, which size the staging
 * buffers.  A compile sums its layer list once and passes the result to
 * every budget call; a caller holding only the layers passes them and
 * converts implicitly.
 */
struct StagingSizes
{
    Bytes max_fp16 = 0;   //!< largest layer in FP16 (the staging buffer)
    Bytes max_stored = 0; //!< largest layer as stored (compressed stream)

    StagingSizes() = default;
    StagingSizes(const std::vector<model::LayerSpec> &layers); // NOLINT
};

/** FP32 attention-score scratch for a prefill step. */
Bytes attention_scratch_bytes(const model::TransformerConfig &config,
                              const model::SequenceShape &shape,
                              std::uint64_t batch);

/**
 * Itemize the GPU budget for a placed model at a given batch size.
 * @param gpu_weight_bytes Bytes the placement keeps on the GPU.
 * @param batch Concurrent requests (batch x micro_batches for block
 *        schedules) — KV cache and hidden state scale with it.
 * @param compressed Whether matrix weights are stored 4-bit (doubles the
 *        staging reserve: transfer buffer + dequantization buffer).
 * @param kv_on_gpu False when the KV cache is offloaded to host memory
 *        (only per-step streaming buffers remain on the GPU).
 */
GpuBudget compute_gpu_budget(const gpu::GpuSpec &gpu,
                             const model::TransformerConfig &config,
                             const StagingSizes &staging,
                             Bytes gpu_weight_bytes,
                             const model::SequenceShape &shape,
                             std::uint64_t batch, bool compressed,
                             bool kv_on_gpu = true);

/**
 * Weight bytes the GPU tier may hold at batch @p batch (what the
 * capacity-enforcement spiller targets); 0 if even zero weights do not
 * fit.
 */
Bytes gpu_weight_budget(const gpu::GpuSpec &gpu,
                        const model::TransformerConfig &config,
                        const StagingSizes &staging,
                        const model::SequenceShape &shape,
                        std::uint64_t batch, bool compressed,
                        bool kv_on_gpu = true);

/**
 * Largest batch for which the configuration fits, holding the GPU-tier
 * weight bytes fixed.  Returns 0 if batch 1 does not fit.
 * @param limit Search ceiling (default 4096).
 */
std::uint64_t max_batch(const gpu::GpuSpec &gpu,
                        const model::TransformerConfig &config,
                        const StagingSizes &staging,
                        Bytes gpu_weight_bytes,
                        const model::SequenceShape &shape, bool compressed,
                        std::uint64_t limit = 4096,
                        bool kv_on_gpu = true);

} // namespace helm::runtime

#endif // HELM_RUNTIME_PLANNER_H
