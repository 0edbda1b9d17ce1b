#include "model/weight.h"

namespace helm::model {

const char *
weight_role_name(WeightRole role)
{
    switch (role) {
      case WeightRole::kQProj:
        return "q_proj";
      case WeightRole::kKProj:
        return "k_proj";
      case WeightRole::kVProj:
        return "v_proj";
      case WeightRole::kOutProj:
        return "out_proj";
      case WeightRole::kQBias:
        return "q_bias";
      case WeightRole::kKBias:
        return "k_bias";
      case WeightRole::kVBias:
        return "v_bias";
      case WeightRole::kOutBias:
        return "out_bias";
      case WeightRole::kAttnLnWeight:
        return "attn_ln_w";
      case WeightRole::kAttnLnBias:
        return "attn_ln_b";
      case WeightRole::kFc1:
        return "fc1";
      case WeightRole::kFc2:
        return "fc2";
      case WeightRole::kFc3:
        return "fc3";
      case WeightRole::kFc1Bias:
        return "fc1_bias";
      case WeightRole::kFc2Bias:
        return "fc2_bias";
      case WeightRole::kFfnLnWeight:
        return "ffn_ln_w";
      case WeightRole::kFfnLnBias:
        return "ffn_ln_b";
      case WeightRole::kTokenEmbedding:
        return "tok_emb";
      case WeightRole::kPosEmbedding:
        return "pos_emb";
      case WeightRole::kFinalLnWeight:
        return "final_ln_w";
      case WeightRole::kFinalLnBias:
        return "final_ln_b";
      case WeightRole::kLmHead:
        return "lm_head";
    }
    return "?";
}

bool
is_matrix_role(WeightRole role)
{
    switch (role) {
      case WeightRole::kQProj:
      case WeightRole::kKProj:
      case WeightRole::kVProj:
      case WeightRole::kOutProj:
      case WeightRole::kFc1:
      case WeightRole::kFc2:
      case WeightRole::kFc3:
      case WeightRole::kTokenEmbedding:
      case WeightRole::kPosEmbedding:
      case WeightRole::kLmHead:
        return true;
      default:
        return false;
    }
}

Bytes
total_weight_bytes(const std::vector<WeightSpec> &weights)
{
    Bytes total = 0;
    for (const auto &w : weights)
        total += w.bytes();
    return total;
}

} // namespace helm::model
