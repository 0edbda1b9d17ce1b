#include "placement/baseline.h"

#include <numeric>

#include "common/status.h"

namespace helm::placement {

std::size_t
get_choice_index(double cur_percent,
                 const std::array<double, kNumTiers> &percents)
{
    double cumulative = 0.0;
    for (std::size_t i = 0; i < percents.size(); ++i) {
        cumulative += percents[i];
        if (cur_percent < cumulative)
            return i;
    }
    return percents.size() - 1;
}

void
allocate_by_percent(const model::LayerSpec &layer,
                    const std::vector<std::size_t> &order,
                    const std::array<double, kNumTiers> &percents,
                    const std::array<Tier, kNumTiers> &tiers,
                    LayerPlacement &placement)
{
    HELM_ASSERT(order.size() == layer.weights.size(),
                "order must cover every weight exactly once");

    // sizes_cumsum over the *ordered* weights (Listing 2 line 15).
    double total = 0.0;
    for (std::size_t idx : order)
        total += static_cast<double>(layer.weights[idx].bytes());
    HELM_ASSERT(total > 0.0, "layer has no weight bytes");

    double cumsum = 0.0;
    for (std::size_t idx : order) {
        const double size =
            static_cast<double>(layer.weights[idx].bytes());
        cumsum += size;
        // mid_percent = (cumsum_i - size_i/2) / total (lines 18-20).
        const double mid_percent =
            (cumsum - size / 2.0) / total * 100.0;
        const std::size_t choice = get_choice_index(mid_percent, percents);
        assign_weight(placement, layer, idx, tiers[choice]);
    }
}

PlacementMap
place_baseline(const std::vector<model::LayerSpec> &layers,
               const Policy &policy)
{
    HELM_ASSERT(policy.validate().is_ok(), "invalid policy");
    PlacementMap map;
    map.layers.reserve(layers.size());

    // Listing 2: dev_percents/dev_choices in (disk, cpu, gpu) order.
    const std::array<double, kNumTiers> percents = policy.disk_cpu_gpu();
    const std::array<Tier, kNumTiers> tiers = {Tier::kDisk, Tier::kCpu,
                                               Tier::kGpu};

    for (const auto &layer : layers) {
        LayerPlacement placement = make_layer_placement(layer);
        // Natural (FlexGen enumeration) order: 0..n-1.
        std::vector<std::size_t> order(layer.weights.size());
        std::iota(order.begin(), order.end(), 0);
        allocate_by_percent(layer, order, percents, tiers, placement);
        map.layers.push_back(std::move(placement));
    }
    return map;
}

} // namespace helm::placement
