/**
 * @file
 * Inference-time memory footprint arithmetic: KV cache and hidden state.
 *
 * The paper's Sec. V example: one OPT-175B decoder block's weights are
 * 3.38 GiB while its KV cache at batch 1 / context 2048 is tens of MiB —
 * 72x smaller — which is why weight placement dominates.  These helpers
 * compute those quantities for any model/batch/sequence/dtype so the
 * batch-feasibility planner and the benches agree on sizes.
 */
#ifndef HELM_MODEL_FOOTPRINT_H
#define HELM_MODEL_FOOTPRINT_H

#include <compare>
#include <cstdint>

#include "common/units.h"
#include "model/dtype.h"
#include "model/transformer.h"

namespace helm::model {

/** Per-request sequence shape of a serving workload. */
struct SequenceShape
{
    std::uint64_t prompt_tokens = 128; //!< paper: input limited to 128
    std::uint64_t output_tokens = 21;  //!< paper: output limited to 21

    /** Longest context reached during generation. */
    std::uint64_t
    max_context() const
    {
        return prompt_tokens + output_tokens;
    }

    /** Ordered by (prompt, output). */
    auto operator<=>(const SequenceShape &) const = default;
};

/**
 * KV-cache bytes for ONE decoder block, one sequence of @p context
 * tokens: K and V, each context x hidden elements.
 */
Bytes kv_bytes_per_block(const TransformerConfig &config,
                         std::uint64_t context,
                         DataType dtype = DataType::kFp16);

/** KV-cache bytes for the whole model, one sequence. */
Bytes kv_bytes_total(const TransformerConfig &config, std::uint64_t context,
                     DataType dtype = DataType::kFp16);

/**
 * KV-cache bytes FlexGen pre-allocates for a batch: the full
 * prompt+output context for every sequence in the batch.
 */
Bytes kv_bytes_batch(const TransformerConfig &config,
                     const SequenceShape &shape, std::uint64_t batch,
                     DataType dtype = DataType::kFp16);

/**
 * Hidden-state bytes for a batch during prefill (batch x prompt x hidden
 * activations in FP16; decode's single-token hidden state is strictly
 * smaller, so this is the high-water mark).
 */
Bytes hidden_bytes_batch(const TransformerConfig &config,
                         const SequenceShape &shape, std::uint64_t batch);

} // namespace helm::model

#endif // HELM_MODEL_FOOTPRINT_H
