#include "placement/helm_placement.h"

#include <algorithm>
#include <numeric>

#include "common/status.h"
#include "placement/baseline.h"

namespace helm::placement {

PlacementMap
place_helm(const std::vector<model::LayerSpec> &layers, const Policy &policy,
           const HelmSplits &splits)
{
    HELM_ASSERT(policy.validate().is_ok(), "invalid policy");
    PlacementMap map;
    map.layers.reserve(layers.size());

    // Listing 3 line 11: dev_choices = [gpu, cpu, disk].
    const std::array<Tier, kNumTiers> tiers = {Tier::kGpu, Tier::kCpu,
                                               Tier::kDisk};

    for (const auto &layer : layers) {
        // Lines 2-9: percentage override by layer type.
        std::array<double, kNumTiers> percents;
        switch (layer.type) {
          case model::LayerType::kMha:
            percents = splits.mha;
            break;
          case model::LayerType::kFfn:
            percents = splits.ffn;
            break;
          default:
            percents = policy.gpu_cpu_disk();
            break;
        }

        LayerPlacement placement = make_layer_placement(layer);
        // Lines 13-14: weights sorted ascending by size.  Stable sort so
        // equal-size tensors keep their enumeration order.
        std::vector<std::size_t> order(layer.weights.size());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return layer.weights[a].bytes() <
                                    layer.weights[b].bytes();
                         });
        allocate_by_percent(layer, order, percents, tiers, placement);
        map.layers.push_back(std::move(placement));
    }
    return map;
}

} // namespace helm::placement
