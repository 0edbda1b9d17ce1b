/**
 * @file
 * LLaMa model zoo (Touvron et al. / Meta [77], cited by the paper).
 *
 * The paper's conclusion notes its techniques "may be generalized to
 * other models and frameworks"; the LLaMa family is the natural test:
 * RMSNorm (no norm bias), no linear biases, RoPE (no position table),
 * SwiGLU gated FFNs, and — on the large variants — grouped-query
 * attention, which shrinks the KV cache up to 8x and materially
 * changes the batch-size/placement tradeoff.
 */
#ifndef HELM_MODEL_LLAMA_H
#define HELM_MODEL_LLAMA_H

#include <vector>

#include "model/transformer.h"

namespace helm::model {

/** Named LLaMa variants. */
enum class LlamaVariant
{
    kLlama2_7B,
    kLlama2_13B,
    kLlama2_70B,
    kLlama3_8B,
    kLlama3_70B,
};

/** All variants, smallest to largest. */
std::vector<LlamaVariant> all_llama_variants();

/** Architecture config of a variant. */
TransformerConfig llama_config(LlamaVariant variant);

} // namespace helm::model

#endif // HELM_MODEL_LLAMA_H
