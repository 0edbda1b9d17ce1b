/**
 * @file
 * Decoder-only transformer architecture description.
 *
 * TransformerConfig captures the dimensions of an OPT-style decoder-only
 * model; build_layers() expands it into the exact per-layer weight lists
 * FlexGen's allocator iterates over.  Layer granularity follows the
 * paper: each decoder block contributes two "hidden layers" (MHA and
 * FFN), bracketed by an input-embedding layer and an output-embedding
 * layer — so OPT-30B has 48*2 + 2 = 98 layers and OPT-175B has
 * 96*2 + 2 = 194 (Sec. III-B).
 */
#ifndef HELM_MODEL_TRANSFORMER_H
#define HELM_MODEL_TRANSFORMER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "model/dtype.h"
#include "model/weight.h"

namespace helm::model {

/** Kinds of schedulable layers in FlexGen's loop. */
enum class LayerType
{
    kInputEmbedding,
    kMha,
    kFfn,
    kOutputEmbedding,
};

/** Printable name. */
const char *layer_type_name(LayerType type);

/** Architecture hyperparameters of a decoder-only transformer. */
struct TransformerConfig
{
    std::string name;          //!< e.g. "OPT-30B"
    std::uint64_t hidden = 0;  //!< hidden size h
    std::uint64_t ffn_hidden = 0; //!< FFN inner size (4h for OPT)
    std::uint64_t heads = 0;   //!< attention heads
    std::uint64_t blocks = 0;  //!< decoder block count
    std::uint64_t vocab = 50272;    //!< OPT vocabulary
    std::uint64_t max_seq = 2048;   //!< maximum context length

    // ---- Architecture-family switches (OPT defaults) -----------------
    /**
     * Grouped-query attention: number of K/V head groups.  0 means
     * "same as heads" (classic MHA, OPT).  LLaMa-2-70B uses 8, which
     * shrinks the KV cache 8x — a materially different placement story.
     */
    std::uint64_t kv_heads = 0;
    /** Linear layers carry bias vectors (OPT yes, LLaMa no). */
    bool has_biases = true;
    /** Learned absolute position embedding table (OPT yes; LLaMa uses
     *  RoPE, which adds no weights). */
    bool has_pos_embedding = true;
    /** Normalization carries a bias (LayerNorm yes, RMSNorm no). */
    bool norm_has_bias = true;
    /** Gated FFN (SwiGLU): three matrices (gate/up/down) instead of
     *  two (fc1/fc2). */
    bool gated_ffn = false;

    /** Head dimension h / heads. */
    std::uint64_t head_dim() const { return hidden / heads; }

    /** Effective K/V head count (GQA-aware). */
    std::uint64_t
    effective_kv_heads() const
    {
        return kv_heads == 0 ? heads : kv_heads;
    }

    /** Width of the K/V projections: kv_heads x head_dim. */
    std::uint64_t
    kv_dim() const
    {
        return effective_kv_heads() * head_dim();
    }

    /** Total schedulable layers: blocks*2 + 2. */
    std::uint64_t num_layers() const { return blocks * 2 + 2; }

    /** Total parameter count (matrices + biases + norms + embeddings). */
    std::uint64_t parameter_count() const;
};

/**
 * One schedulable layer: its type, owning decoder block (or -1 for the
 * embedding layers), and ordered weight list.
 */
struct LayerSpec
{
    LayerType type;
    int block_index = -1; //!< decoder block, -1 for embeddings
    int layer_index = 0;  //!< position in the schedule, 0-based
    std::vector<WeightSpec> weights;

    /** Total stored bytes of this layer's weights. */
    Bytes weight_bytes() const { return total_weight_bytes(weights); }
};

/**
 * Expand a config into FlexGen's layer list.
 * @param config Architecture dimensions.
 * @param dtype Storage dtype for *matrix* weights; bias/norm weights stay
 *              FP16 even under compression (FlexGen quantizes matrices
 *              only — metadata tensors are too small to matter).
 */
std::vector<LayerSpec> build_layers(const TransformerConfig &config,
                                    DataType dtype = DataType::kFp16);

/** Sum of weight_bytes over all layers. */
Bytes model_weight_bytes(const std::vector<LayerSpec> &layers);


} // namespace helm::model

#endif // HELM_MODEL_TRANSFORMER_H
