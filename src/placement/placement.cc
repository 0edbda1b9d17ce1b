#include "placement/placement.h"

#include "common/args.h"
#include "common/status.h"

namespace helm::placement {

Bytes
PlacementMap::tier_total(Tier tier) const
{
    Bytes total = 0;
    for (const auto &layer : layers)
        total += layer.bytes_on(tier);
    return total;
}

TierSplit
PlacementMap::achieved() const
{
    TierSplit s;
    const double total =
        static_cast<double>(tier_total(Tier::kGpu) +
                            tier_total(Tier::kCpu) +
                            tier_total(Tier::kDisk));
    if (total == 0.0)
        return s;
    s.gpu = 100.0 * static_cast<double>(tier_total(Tier::kGpu)) / total;
    s.cpu = 100.0 * static_cast<double>(tier_total(Tier::kCpu)) / total;
    s.disk = 100.0 * static_cast<double>(tier_total(Tier::kDisk)) / total;
    return s;
}

TierSplit
PlacementMap::split_for_type(model::LayerType type) const
{
    std::array<Bytes, kNumTiers> sums{0, 0, 0};
    for (const auto &layer : layers) {
        if (layer.type != type)
            continue;
        for (int t = 0; t < kNumTiers; ++t)
            sums[t] += layer.tier_bytes[t];
    }
    TierSplit s;
    const double total =
        static_cast<double>(sums[0] + sums[1] + sums[2]);
    if (total == 0.0)
        return s;
    s.gpu = 100.0 * static_cast<double>(sums[0]) / total;
    s.cpu = 100.0 * static_cast<double>(sums[1]) / total;
    s.disk = 100.0 * static_cast<double>(sums[2]) / total;
    return s;
}

const char *
placement_kind_name(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::kBaseline:
        return "Baseline";
      case PlacementKind::kHelm:
        return "HeLM";
      case PlacementKind::kAllCpu:
        return "All-CPU";
      case PlacementKind::kBalanced:
        return "Balanced";
    }
    return "?";
}

Result<PlacementKind>
parse_placement_kind(const std::string &name)
{
    for (auto kind : {PlacementKind::kBaseline, PlacementKind::kHelm,
                      PlacementKind::kBalanced, PlacementKind::kAllCpu}) {
        if (iequals(name, placement_kind_name(kind)))
            return kind;
    }
    if (iequals(name, "all_cpu") || iequals(name, "allcpu"))
        return PlacementKind::kAllCpu;
    return Status::not_found("unknown placement scheme: " + name +
                             " (Baseline, HeLM, Balanced, All-CPU)");
}

PlacementMap
place_all_cpu(const std::vector<model::LayerSpec> &layers)
{
    PlacementMap map;
    map.layers.reserve(layers.size());
    for (const auto &layer : layers)
        map.layers.push_back(make_layer_placement(layer));
    return map;
}

LayerPlacement
make_layer_placement(const model::LayerSpec &layer)
{
    LayerPlacement placement;
    placement.layer_index = layer.layer_index;
    placement.type = layer.type;
    placement.weight_tiers.assign(layer.weights.size(), Tier::kCpu);
    placement.tier_bytes[static_cast<int>(Tier::kCpu)] =
        layer.weight_bytes();
    return placement;
}

void
assign_weight(LayerPlacement &placement, const model::LayerSpec &layer,
              std::size_t w_index, Tier tier)
{
    HELM_ASSERT(w_index < layer.weights.size(), "weight index OOB");
    HELM_ASSERT(placement.weight_tiers.size() == layer.weights.size(),
                "placement/layer weight count mismatch");
    // Move the weight's bytes from its current tier to the new one; the
    // sums are integers, so they stay exact in any order of moves.
    const Bytes bytes = layer.weights[w_index].bytes();
    Tier &current = placement.weight_tiers[w_index];
    placement.tier_bytes[static_cast<int>(current)] -= bytes;
    placement.tier_bytes[static_cast<int>(tier)] += bytes;
    current = tier;
}

} // namespace helm::placement
