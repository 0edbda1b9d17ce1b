#include "placement/all_cpu.h"

namespace helm::placement {

PlacementMap
AllCpuPlacement::place(const std::vector<model::LayerSpec> &layers,
                       const Policy &policy) const
{
    (void)policy; // All-CPU ignores the requested split by design.
    PlacementMap map;
    map.algorithm = name();
    map.layers.reserve(layers.size());
    for (const auto &layer : layers)
        map.layers.push_back(make_layer_placement(layer));
    return map;
}

} // namespace helm::placement
