#include "model/llama.h"

namespace helm::model {

std::vector<LlamaVariant>
all_llama_variants()
{
    return {LlamaVariant::kLlama2_7B, LlamaVariant::kLlama3_8B,
            LlamaVariant::kLlama2_13B, LlamaVariant::kLlama2_70B,
            LlamaVariant::kLlama3_70B};
}

TransformerConfig
llama_config(LlamaVariant variant)
{
    TransformerConfig c;
    // Family-wide switches.
    c.has_biases = false;
    c.has_pos_embedding = false; // RoPE
    c.norm_has_bias = false;     // RMSNorm
    c.gated_ffn = true;          // SwiGLU

    switch (variant) {
      case LlamaVariant::kLlama2_7B:
        c.name = "LLaMa-2-7B";
        c.hidden = 4096;
        c.heads = 32;
        c.kv_heads = 0; // full MHA
        c.ffn_hidden = 11008;
        c.blocks = 32;
        c.vocab = 32000;
        c.max_seq = 4096;
        break;
      case LlamaVariant::kLlama2_13B:
        c.name = "LLaMa-2-13B";
        c.hidden = 5120;
        c.heads = 40;
        c.kv_heads = 0;
        c.ffn_hidden = 13824;
        c.blocks = 40;
        c.vocab = 32000;
        c.max_seq = 4096;
        break;
      case LlamaVariant::kLlama2_70B:
        c.name = "LLaMa-2-70B";
        c.hidden = 8192;
        c.heads = 64;
        c.kv_heads = 8; // GQA: KV cache shrinks 8x
        c.ffn_hidden = 28672;
        c.blocks = 80;
        c.vocab = 32000;
        c.max_seq = 4096;
        break;
      case LlamaVariant::kLlama3_8B:
        c.name = "LLaMa-3-8B";
        c.hidden = 4096;
        c.heads = 32;
        c.kv_heads = 8;
        c.ffn_hidden = 14336;
        c.blocks = 32;
        c.vocab = 128256;
        c.max_seq = 8192;
        break;
      case LlamaVariant::kLlama3_70B:
        c.name = "LLaMa-3-70B";
        c.hidden = 8192;
        c.heads = 64;
        c.kv_heads = 8;
        c.ffn_hidden = 28672;
        c.blocks = 80;
        c.vocab = 128256;
        c.max_seq = 8192;
        break;
    }
    return c;
}

} // namespace helm::model
