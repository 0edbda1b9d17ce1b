#include "model/footprint.h"

namespace helm::model {

Bytes
kv_bytes_per_block(const TransformerConfig &config, std::uint64_t context,
                   DataType dtype)
{
    // K and V each store context x kv_dim elements per block; grouped-
    // query attention (kv_heads < heads) shrinks this proportionally.
    return tensor_bytes(2 * context * config.kv_dim(), dtype);
}

Bytes
kv_bytes_total(const TransformerConfig &config, std::uint64_t context,
               DataType dtype)
{
    return config.blocks * kv_bytes_per_block(config, context, dtype);
}

Bytes
kv_bytes_batch(const TransformerConfig &config, const SequenceShape &shape,
               std::uint64_t batch, DataType dtype)
{
    return batch * kv_bytes_total(config, shape.max_context(), dtype);
}

Bytes
hidden_bytes_batch(const TransformerConfig &config,
                   const SequenceShape &shape, std::uint64_t batch)
{
    // FlexGen keeps the current layer's input and output activations:
    // 2 x (batch x prompt x hidden) FP16 during prefill.
    return tensor_bytes(2 * batch * shape.prompt_tokens * config.hidden,
                        DataType::kFp16);
}

} // namespace helm::model
