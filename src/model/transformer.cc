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

WeightSpec
make_weight(const std::string &prefix, WeightRole role,
            std::uint64_t elements, DataType matrix_dtype)
{
    WeightSpec spec;
    spec.name = prefix + "." + weight_role_name(role);
    spec.role = role;
    spec.elements = elements;
    spec.dtype = dtype_for_role(role, matrix_dtype);
    return spec;
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

    std::vector<LayerSpec> layers;
    layers.reserve(config.num_layers());

    // Input embedding layer.
    {
        LayerSpec layer;
        layer.type = LayerType::kInputEmbedding;
        layer.layer_index = 0;
        layer.weights.push_back(make_weight(
            "embed", WeightRole::kTokenEmbedding, config.vocab * h,
            dtype));
        if (config.has_pos_embedding) {
            layer.weights.push_back(
                make_weight("embed", WeightRole::kPosEmbedding,
                            config.max_seq * h, dtype));
        }
        layers.push_back(std::move(layer));
    }

    // Decoder blocks: MHA then FFN, matching FlexGen's layer split.
    for (std::uint64_t b = 0; b < config.blocks; ++b) {
        const std::string prefix = "decoder." + std::to_string(b);

        const std::uint64_t kv = config.kv_dim();

        LayerSpec mha;
        mha.type = LayerType::kMha;
        mha.block_index = static_cast<int>(b);
        mha.layer_index = static_cast<int>(layers.size());
        // FlexGen enumerates the projection matrices first, then biases,
        // then the block's input norm — this order is what Listing 2
        // cumulates over.
        mha.weights.push_back(make_weight(prefix + ".mha",
                                          WeightRole::kQProj, h * h,
                                          dtype));
        mha.weights.push_back(make_weight(prefix + ".mha",
                                          WeightRole::kKProj, h * kv,
                                          dtype));
        mha.weights.push_back(make_weight(prefix + ".mha",
                                          WeightRole::kVProj, h * kv,
                                          dtype));
        mha.weights.push_back(make_weight(prefix + ".mha",
                                          WeightRole::kOutProj, h * h,
                                          dtype));
        if (config.has_biases) {
            mha.weights.push_back(make_weight(
                prefix + ".mha", WeightRole::kQBias, h, dtype));
            mha.weights.push_back(make_weight(
                prefix + ".mha", WeightRole::kKBias, kv, dtype));
            mha.weights.push_back(make_weight(
                prefix + ".mha", WeightRole::kVBias, kv, dtype));
            mha.weights.push_back(make_weight(
                prefix + ".mha", WeightRole::kOutBias, h, dtype));
        }
        mha.weights.push_back(make_weight(
            prefix + ".mha", WeightRole::kAttnLnWeight, h, dtype));
        if (config.norm_has_bias) {
            mha.weights.push_back(make_weight(
                prefix + ".mha", WeightRole::kAttnLnBias, h, dtype));
        }
        layers.push_back(std::move(mha));

        LayerSpec ffn;
        ffn.type = LayerType::kFfn;
        ffn.block_index = static_cast<int>(b);
        ffn.layer_index = static_cast<int>(layers.size());
        ffn.weights.push_back(make_weight(prefix + ".ffn",
                                          WeightRole::kFc1, h * f,
                                          dtype));
        ffn.weights.push_back(make_weight(prefix + ".ffn",
                                          WeightRole::kFc2, f * h,
                                          dtype));
        if (config.gated_ffn) {
            ffn.weights.push_back(make_weight(
                prefix + ".ffn", WeightRole::kFc3, h * f, dtype));
        }
        if (config.has_biases) {
            ffn.weights.push_back(make_weight(
                prefix + ".ffn", WeightRole::kFc1Bias, f, dtype));
            ffn.weights.push_back(make_weight(
                prefix + ".ffn", WeightRole::kFc2Bias, h, dtype));
        }
        ffn.weights.push_back(make_weight(
            prefix + ".ffn", WeightRole::kFfnLnWeight, h, dtype));
        if (config.norm_has_bias) {
            ffn.weights.push_back(make_weight(
                prefix + ".ffn", WeightRole::kFfnLnBias, h, dtype));
        }
        layers.push_back(std::move(ffn));
    }

    // Output embedding layer (final norm + LM head).
    {
        LayerSpec layer;
        layer.type = LayerType::kOutputEmbedding;
        layer.layer_index = static_cast<int>(layers.size());
        layer.weights.push_back(make_weight(
            "output", WeightRole::kFinalLnWeight, h, dtype));
        if (config.norm_has_bias) {
            layer.weights.push_back(make_weight(
                "output", WeightRole::kFinalLnBias, h, dtype));
        }
        layer.weights.push_back(make_weight(
            "output", WeightRole::kLmHead, config.vocab * h, dtype));
        layers.push_back(std::move(layer));
    }

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
