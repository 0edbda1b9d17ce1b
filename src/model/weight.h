/**
 * @file
 * Weight tensor specifications.
 *
 * A WeightSpec describes one tensor of a layer: its role (which
 * matrix/bias/norm it is), element count, and dtype.  A layer holds at
 * most one tensor per role, so (layer index, role) names a tensor.  Placement
 * algorithms (Listings 2 and 3 of the paper) operate on ordered lists of
 * WeightSpecs, so the order in which a layer enumerates its weights is
 * semantically meaningful — it is exactly FlexGen's `weight_specs`
 * order.
 */
#ifndef HELM_MODEL_WEIGHT_H
#define HELM_MODEL_WEIGHT_H

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "model/dtype.h"

namespace helm::model {

/** What a weight tensor is, within its layer. */
enum class WeightRole
{
    // Multi-head attention
    kQProj,       //!< query projection, h x h
    kKProj,       //!< key projection, h x h
    kVProj,       //!< value projection, h x h
    kOutProj,     //!< output projection, h x h
    kQBias,       //!< query bias, h
    kKBias,       //!< key bias, h
    kVBias,       //!< value bias, h
    kOutBias,     //!< output bias, h
    kAttnLnWeight,//!< pre-attention LayerNorm gamma, h
    kAttnLnBias,  //!< pre-attention LayerNorm beta, h
    // Feed-forward network
    kFc1,         //!< first FC (gate proj when gated), h x ffn
    kFc2,         //!< second FC (down proj when gated), ffn x h
    kFc3,         //!< up projection (gated FFN only), h x ffn
    kFc1Bias,     //!< first FC bias, ffn
    kFc2Bias,     //!< second FC bias, h
    kFfnLnWeight, //!< pre-FFN LayerNorm gamma, h
    kFfnLnBias,   //!< pre-FFN LayerNorm beta, h
    // Embeddings
    kTokenEmbedding, //!< vocab x h
    kPosEmbedding,   //!< max_seq x h
    kFinalLnWeight,  //!< final LayerNorm gamma, h
    kFinalLnBias,    //!< final LayerNorm beta, h
    kLmHead,         //!< output projection to vocab, vocab x h
};

/** Printable short name ("q_proj", "fc1", ...). */
const char *weight_role_name(WeightRole role);

/** True for the large 2-D matrices (proj/fc/embedding). */
bool is_matrix_role(WeightRole role);

/** One tensor of a layer. */
struct WeightSpec
{
    WeightRole role;
    std::uint64_t elements; //!< element count
    DataType dtype = DataType::kFp16;

    /** Storage size, including quantization metadata when compressed. */
    Bytes bytes() const { return tensor_bytes(elements, dtype); }

    /** Size of the FP16 (uncompressed) form — what the GPU computes on. */
    Bytes
    fp16_bytes() const
    {
        return tensor_bytes(elements, DataType::kFp16);
    }
};

/** Sum of WeightSpec::bytes over a list. */
Bytes total_weight_bytes(const std::vector<WeightSpec> &weights);

} // namespace helm::model

#endif // HELM_MODEL_WEIGHT_H
