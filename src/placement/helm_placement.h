/**
 * @file
 * HeLM: Heterogeneous Layerwise Mapping (paper Listing 3, Sec. V-B).
 *
 * The latency-optimizing scheme.  Three changes versus the baseline:
 *  1. Per-layer-type percentage overrides: MHA gets (gpu=10, cpu=90,
 *     disk=0), FFN gets (gpu=30, cpu=70, disk=0); other layers use the
 *     caller's policy.
 *  2. Tier order is (gpu, cpu, disk) instead of (disk, cpu, gpu).
 *  3. Weights are walked in ascending size order, so the small bias and
 *     LayerNorm tensors land on the GPU first, followed by FFN's fc1.
 *
 * The combination places ~50% of each FFN layer (fc1 + metadata) and
 * only the metadata of each MHA layer on the GPU (Figs. 9-10), which
 * equalizes the transfer of layer j+1 against the compute of layer j.
 */
#ifndef HELM_PLACEMENT_HELM_H
#define HELM_PLACEMENT_HELM_H

#include "placement/placement.h"

namespace helm::placement {

/** HeLM's per-layer-type GPU/CPU/DISK overrides (Listing 3). */
struct HelmSplits
{
    std::array<double, kNumTiers> mha{10.0, 90.0, 0.0};
    std::array<double, kNumTiers> ffn{30.0, 70.0, 0.0};
};

/**
 * The latency-optimizing scheme.  MHA and FFN layers take @p splits
 * (custom split points serve the ablation bench and the tuner); every
 * other layer takes @p policy.
 */
PlacementMap place_helm(const std::vector<model::LayerSpec> &layers,
                        const Policy &policy,
                        const HelmSplits &splits = HelmSplits{});

} // namespace helm::placement

#endif // HELM_PLACEMENT_HELM_H
