#include "model/zoo.h"

#include "common/args.h"
#include "model/llama.h"
#include "model/opt.h"

namespace helm::model {

std::vector<TransformerConfig>
all_models()
{
    std::vector<TransformerConfig> models;
    for (OptVariant v : all_opt_variants())
        models.push_back(opt_config(v));
    for (LlamaVariant v : all_llama_variants())
        models.push_back(llama_config(v));
    return models;
}

Result<TransformerConfig>
find_model(const std::string &name)
{
    for (const auto &config : all_models()) {
        if (iequals(config.name, name))
            return config;
    }
    return Status::not_found(
        "unknown model: " + name +
        " (run `helmsim models` for the registry)");
}

} // namespace helm::model
