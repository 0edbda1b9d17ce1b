/**
 * @file
 * Weight placement: assignments of every weight tensor to a memory tier.
 *
 * Each scheme is a free function — place_baseline (placement/baseline.h),
 * place_helm (placement/helm_placement.h), place_all_cpu (below) and
 * place_balanced (placement/balanced.h) — that consumes the model's
 * layer list and produces a PlacementMap recording, for every weight of
 * every layer, which tier it lives on.  The map also answers the
 * aggregate questions the paper asks: achieved vs requested
 * distribution (Sec. V-A), per-layer-type splits (Figs. 7b/7c/10), and
 * per-layer off-GPU transfer bytes (the input to the scheduler).
 */
#ifndef HELM_PLACEMENT_PLACEMENT_H
#define HELM_PLACEMENT_PLACEMENT_H

#include <array>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "model/transformer.h"
#include "placement/policy.h"

namespace helm::placement {

/** Percentage split across the three tiers (sums to ~100). */
struct TierSplit
{
    double gpu = 0.0;
    double cpu = 0.0;
    double disk = 0.0;
};

/** Tier assignment for every weight of one layer, in layer-weight order. */
struct LayerPlacement
{
    int layer_index = 0;
    model::LayerType type = model::LayerType::kMha;
    std::vector<Tier> weight_tiers; //!< parallel to LayerSpec::weights
    std::array<Bytes, kNumTiers> tier_bytes{0, 0, 0};

    Bytes
    bytes_on(Tier tier) const
    {
        return tier_bytes[static_cast<int>(tier)];
    }

    /** Bytes that must cross PCIe before this layer can run. */
    Bytes
    off_gpu_bytes() const
    {
        return bytes_on(Tier::kCpu) + bytes_on(Tier::kDisk);
    }

    Bytes
    total_bytes() const
    {
        return tier_bytes[0] + tier_bytes[1] + tier_bytes[2];
    }
};

/** The full model's placement. */
struct PlacementMap
{
    std::vector<LayerPlacement> layers;

    /** Total bytes resident on a tier. */
    Bytes tier_total(Tier tier) const;

    /** Achieved overall distribution (the paper's Sec. V-A check). */
    TierSplit achieved() const;

    /** Average split across layers of one type (Figs. 7b/7c/10). */
    TierSplit split_for_type(model::LayerType type) const;
};

/** The paper's three schemes plus this library's profile-guided one. */
enum class PlacementKind
{
    kBaseline, //!< FlexGen's Listing 2
    kHelm,     //!< Listing 3, latency-optimizing
    kAllCpu,   //!< Sec. V-C, throughput-optimizing
    kBalanced, //!< profile-guided exact balance (placement/balanced.h)
};

/** Printable name. */
const char *placement_kind_name(PlacementKind kind);

/** The scheme @p name names, in any case; "all_cpu" and "allcpu" also
 *  name All-CPU. */
Result<PlacementKind> parse_placement_kind(const std::string &name);

/**
 * All-CPU, the throughput-optimizing scheme (paper Sec. V-C): every
 * weight on the host tier, leaving GPU memory to the KV cache and
 * hidden state, which raises OPT-175B's maximum batch from 8 to 44 and
 * its throughput by ~5x on NVDRAM (Fig. 12).
 */
PlacementMap place_all_cpu(const std::vector<model::LayerSpec> &layers);

/** Helper: a LayerPlacement for @p layer with every weight on the CPU
 *  tier, tier_bytes included. */
LayerPlacement make_layer_placement(const model::LayerSpec &layer);

/** Helper: move weight @p w_index of @p layer to @p tier, in O(1).
 *  @p placement must come from make_layer_placement(@p layer). */
void assign_weight(LayerPlacement &placement, const model::LayerSpec &layer,
                   std::size_t w_index, Tier tier);

} // namespace helm::placement

#endif // HELM_PLACEMENT_PLACEMENT_H
