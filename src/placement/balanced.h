/**
 * @file
 * Balanced: profile-guided weight placement (beyond the paper).
 *
 * HeLM (Sec. V-B) balances the compute/communication pipeline with
 * fixed per-layer-type percentages chosen by inspection.  Balanced
 * solves the same objective directly: given per-layer compute times
 * (each layer's transfer overlaps the *previous* layer's compute in
 * FlexGen's schedule) and the host->GPU bandwidth, it measures each
 * layer's pipeline stall — transfer time beyond its overlap window —
 * and greedily pins the tensor with the highest stall reduction per
 * GPU byte until the budget is exhausted or every stall is gone.  This
 * handles tensor granularity exactly (a global scaling factor cannot:
 * FFN layers hold two ~340 MB tensors, so their GPU demand is a step
 * function) and is the "automatic" placement the paper's conclusion
 * calls for, with HeLM as a fixed-percentage approximation of it.
 */
#ifndef HELM_PLACEMENT_BALANCED_H
#define HELM_PLACEMENT_BALANCED_H

#include <vector>

#include "common/units.h"
#include "placement/placement.h"

namespace helm::placement {

/** Inputs the profile-guided solver needs. */
struct BalanceProfile
{
    /**
     * Per-layer compute times, indexed like the layer list.  Layer j's
     * weight transfer overlaps compute of layer j-1 (FlexGen's
     * schedule), so layer j's window is compute_times[j-1]; layer 0
     * wraps around to the last layer (steady state).
     */
    std::vector<Seconds> compute_times;

    /** Effective host -> GPU weight-transfer bandwidth. */
    Bandwidth transfer_bandwidth;

    /** GPU bytes the weights may occupy (planner's weight budget). */
    Bytes gpu_weight_budget = 0;
};

/** The profile-guided scheme: @p profile drives the whole split, and
 *  weights never land on disk. */
PlacementMap place_balanced(const std::vector<model::LayerSpec> &layers,
                            const BalanceProfile &profile);

} // namespace helm::placement

#endif // HELM_PLACEMENT_BALANCED_H
