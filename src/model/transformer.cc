#include "model/transformer.h"

#include "common/status.h"

namespace helm::model {

const char *
layer_type_name(LayerType type)
{
    switch (type) {
      case LayerType::kInputEmbedding:
        return "input_embedding";
      case LayerType::kMha:
        return "mha";
      case LayerType::kFfn:
        return "ffn";
      case LayerType::kOutputEmbedding:
        return "output_embedding";
    }
    return "?";
}

std::uint64_t
TransformerConfig::parameter_count() const
{
    const std::uint64_t h = hidden;
    const std::uint64_t f = ffn_hidden;
    const std::uint64_t kv = kv_dim();
    // Attention: q/out (h^2 each) + k/v (h*kv each) + optional biases.
    std::uint64_t per_block = 2 * h * h + 2 * h * kv;
    if (has_biases)
        per_block += 2 * h + 2 * kv;
    // Norms: gamma (+ beta for LayerNorm), two per block.
    per_block += 2 * h * (norm_has_bias ? 2 : 1);
    // FFN: fc1/fc2 (+ fc3 when gated) + optional biases.
    per_block += 2 * h * f + (gated_ffn ? h * f : 0);
    if (has_biases)
        per_block += f + h;
    std::uint64_t embeddings = vocab * h + vocab * h; // tok + head
    if (has_pos_embedding)
        embeddings += max_seq * h;
    embeddings += h * (norm_has_bias ? 2 : 1); // final norm
    return blocks * per_block + embeddings;
}

namespace {

/** Quantized storage applies to matrices only; metadata stays FP16. */
DataType
dtype_for_role(WeightRole role, DataType matrix_dtype)
{
    return is_matrix_role(role) ? matrix_dtype : DataType::kFp16;
}

} // namespace

std::vector<LayerSpec>
build_layers(const TransformerConfig &config, DataType dtype)
{
    HELM_ASSERT(config.hidden > 0 && config.blocks > 0,
                "config must set hidden and blocks");
    HELM_ASSERT(config.hidden % config.heads == 0,
                "hidden must divide evenly into heads");
    const std::uint64_t h = config.hidden;
    const std::uint64_t f = config.ffn_hidden;
    const std::uint64_t kv = config.kv_dim();

    std::vector<LayerSpec> layers;
    layers.reserve(config.num_layers());
    auto add_layer = [&layers](LayerType type, int block) -> LayerSpec & {
        LayerSpec &layer = layers.emplace_back();
        layer.type = type;
        layer.block_index = block;
        layer.layer_index = static_cast<int>(layers.size() - 1);
        return layer;
    };
    auto add = [dtype](LayerSpec &layer, WeightRole role,
                       std::uint64_t elements) {
        layer.weights.push_back(
            WeightSpec{role, elements, dtype_for_role(role, dtype)});
    };

    // Input embedding layer.
    LayerSpec &embed = add_layer(LayerType::kInputEmbedding, -1);
    add(embed, WeightRole::kTokenEmbedding, config.vocab * h);
    if (config.has_pos_embedding)
        add(embed, WeightRole::kPosEmbedding, config.max_seq * h);

    // Decoder blocks: MHA then FFN, matching FlexGen's layer split.
    for (std::uint64_t b = 0; b < config.blocks; ++b) {
        // FlexGen enumerates the projection matrices first, then biases,
        // then the block's input norm — this order is what Listing 2
        // cumulates over.
        LayerSpec &mha = add_layer(LayerType::kMha, static_cast<int>(b));
        add(mha, WeightRole::kQProj, h * h);
        add(mha, WeightRole::kKProj, h * kv);
        add(mha, WeightRole::kVProj, h * kv);
        add(mha, WeightRole::kOutProj, h * h);
        if (config.has_biases) {
            add(mha, WeightRole::kQBias, h);
            add(mha, WeightRole::kKBias, kv);
            add(mha, WeightRole::kVBias, kv);
            add(mha, WeightRole::kOutBias, h);
        }
        add(mha, WeightRole::kAttnLnWeight, h);
        if (config.norm_has_bias)
            add(mha, WeightRole::kAttnLnBias, h);

        LayerSpec &ffn = add_layer(LayerType::kFfn, static_cast<int>(b));
        add(ffn, WeightRole::kFc1, h * f);
        add(ffn, WeightRole::kFc2, f * h);
        if (config.gated_ffn)
            add(ffn, WeightRole::kFc3, h * f);
        if (config.has_biases) {
            add(ffn, WeightRole::kFc1Bias, f);
            add(ffn, WeightRole::kFc2Bias, h);
        }
        add(ffn, WeightRole::kFfnLnWeight, h);
        if (config.norm_has_bias)
            add(ffn, WeightRole::kFfnLnBias, h);
    }

    // Output embedding layer (final norm + LM head).
    LayerSpec &output = add_layer(LayerType::kOutputEmbedding, -1);
    add(output, WeightRole::kFinalLnWeight, h);
    if (config.norm_has_bias)
        add(output, WeightRole::kFinalLnBias, h);
    add(output, WeightRole::kLmHead, config.vocab * h);

    HELM_ASSERT(layers.size() == config.num_layers(),
                "layer expansion does not match num_layers()");
    return layers;
}

Bytes
model_weight_bytes(const std::vector<LayerSpec> &layers)
{
    Bytes total = 0;
    for (const auto &layer : layers)
        total += layer.weight_bytes();
    return total;
}

} // namespace helm::model
