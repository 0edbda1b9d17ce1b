/**
 * @file
 * FlexGen's baseline weight allocation (paper Listing 2).
 *
 * For each layer, weights are walked in their natural order; each weight
 * is assigned to the first tier whose cumulative percentage exceeds the
 * weight's size-midpoint percentile within the layer.  Tier order is
 * FlexGen's (disk, cpu, gpu).  The algorithm is layer-size-oblivious,
 * which produces the sawtooth of Fig. 7a and the achieved-vs-requested
 * mismatch of Sec. V-A — reproducing those artifacts is the point.
 */
#ifndef HELM_PLACEMENT_BASELINE_H
#define HELM_PLACEMENT_BASELINE_H

#include <array>
#include <cstddef>
#include <vector>

#include "common/units.h"
#include "placement/placement.h"

namespace helm::placement {

/**
 * Listing 2's get_choice(): index of the first tier whose cumulative
 * percentage bound exceeds @p cur_percent; the last tier catches the
 * remainder.  Exposed for unit tests.
 *
 * @param cur_percent The weight's midpoint percentile (0..100).
 * @param percents Per-tier percentages in allocation order.
 */
std::size_t get_choice_index(double cur_percent,
                             const std::array<double, kNumTiers> &percents);

/**
 * The shared allocation loop (Listing 2 lines 14-24): walk
 * @p order (indices into layer.weights), compute each weight's midpoint
 * percentile of the layer total, and assign via get_choice_index over
 * @p tiers/@p percents.
 */
void allocate_by_percent(const model::LayerSpec &layer,
                         const std::vector<std::size_t> &order,
                         const std::array<double, kNumTiers> &percents,
                         const std::array<Tier, kNumTiers> &tiers,
                         LayerPlacement &placement);

/** FlexGen's default scheme: @p policy's split, layer by layer. */
PlacementMap place_baseline(const std::vector<model::LayerSpec> &layers,
                            const Policy &policy);

} // namespace helm::placement

#endif // HELM_PLACEMENT_BASELINE_H
