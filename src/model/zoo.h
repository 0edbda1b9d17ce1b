/**
 * @file
 * Unified model registry across the OPT and LLaMa zoos.
 */
#ifndef HELM_MODEL_ZOO_H
#define HELM_MODEL_ZOO_H

#include <string>
#include <vector>

#include "common/status.h"
#include "model/transformer.h"

namespace helm::model {

/** Every model the library ships, smallest OPT first then LLaMa. */
std::vector<TransformerConfig> all_models();

/** Lookup across both families ("OPT-30B", "LLaMa-2-70B", ...), in
 *  any case (no two names differ only in case). */
Result<TransformerConfig> find_model(const std::string &name);

} // namespace helm::model

#endif // HELM_MODEL_ZOO_H
