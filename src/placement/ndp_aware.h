/**
 * @file
 * NDP-aware compute-site assignment.
 *
 * The NDP-DIMM backend (arXiv 2502.16963) adds a second place a layer
 * can execute: near-data, on the GEMV units inside the DIMM pool.  A
 * layer that runs near-data never moves its weights over PCIe — the
 * engine charges the NDP execution time instead of an h2d flow.  This
 * module makes the per-layer GPU-vs-NDP decision from arithmetic
 * intensity: low-intensity (bandwidth-bound) layers whose transfer
 * time dominates their GPU compute win near-data, high-intensity
 * layers keep the GPU's FLOP advantage.
 *
 * Eligibility is deliberately narrow: only FFN layers that are fully
 * host-resident may offload.  MHA layers attend over GPU-resident K/V
 * (shipping the cache to the DIMMs would cost more than it saves), and
 * a layer split across tiers would still pay the h2d for its GPU
 * share.  FFN weights are ~2/3 of a decoder block, so this already
 * removes the dominant transfer (paper Fig. 8).
 */
#ifndef HELM_PLACEMENT_NDP_AWARE_H
#define HELM_PLACEMENT_NDP_AWARE_H

#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "model/transformer.h"

namespace helm::placement {

/** Where one layer's matrix work executes. */
enum class ComputeSite
{
    kGpu, //!< today's path: weights stream to the GPU over h2d
    kNdp, //!< near-data on the NDP-DIMM pool; no h2d for this layer
};

/** How the engine assigns compute sites. */
enum class ComputeSiteMode
{
    kGpuOnly, //!< default: everything on the GPU (pre-zoo behavior)
    kNdpAuto, //!< per-layer arithmetic-intensity decision
    kNdpAll,  //!< force every eligible layer near-data (ablations)
};

/** Printable name ("gpu"/"auto"/"ndp"). */
const char *compute_site_mode_name(ComputeSiteMode mode);

/** The mode @p name names, in any case. */
Result<ComputeSiteMode> parse_compute_site_mode(const std::string &name);

/** The NDP tier's execution model, extracted from the device. */
struct NdpProfile
{
    /** Effective host->GPU rate for a layer-sized chunk (the cost the
     *  GPU path pays and the NDP path avoids). */
    Bandwidth h2d_bandwidth;
    /** Aggregate near-bank operand streaming rate. */
    Bandwidth gemv_rate;
    /** Aggregate near-data compute rate, FLOP/s. */
    double gemv_flops = 0.0;
    /** Per-dispatched-step offload command latency. */
    Seconds command_latency = 0.0;
};

/**
 * Per-layer inputs to the site decision, expressed per *step* (one
 * zig-zag schedule step = one weight transfer serving all micro-batch
 * executions), so the comparison matches what the DES will charge.
 */
struct LayerSiteWork
{
    model::LayerType type = model::LayerType::kMha;
    Bytes host_bytes = 0;  //!< weight bytes placed on the host tier
    Bytes total_bytes = 0; //!< full stored weight bytes of the layer
    /** Bytes the NDP units stream per step: host_bytes re-read once per
     *  micro-batch execution (near-data GEMV has no weight cache). */
    Bytes stream_bytes = 0;
    double flops = 0.0;        //!< decode-stage FLOPs per step (all
                               //!< micro-batches, shard-scaled)
    Seconds gpu_compute = 0.0; //!< decode-stage GPU seconds per step
};

/** One layer's verdict plus the numbers behind it (reporting). */
struct SiteDecision
{
    ComputeSite site = ComputeSite::kGpu;
    double arithmetic_intensity = 0.0; //!< flops / host byte
    Seconds gpu_time = 0.0; //!< est. per-step cost on the GPU path
    Seconds ndp_time = 0.0; //!< est. per-step cost near-data
};

/** Near-data execution time for @p bytes of weights and @p flops:
 *  jointly bandwidth- and compute-limited, excluding command latency. */
Seconds ndp_execution_time(const NdpProfile &profile, Bytes bytes,
                           double flops);

/**
 * Decide GPU vs NDP for every layer.  @p mode kGpuOnly short-circuits
 * to all-GPU; kNdpAuto offloads an eligible layer when its near-data
 * time (command latency included) beats the GPU path's
 * max(h2d transfer, GPU compute); kNdpAll offloads every eligible
 * layer unconditionally.
 */
std::vector<SiteDecision>
assign_compute_sites(const std::vector<LayerSiteWork> &layers,
                     const NdpProfile &profile, ComputeSiteMode mode);

} // namespace helm::placement

#endif // HELM_PLACEMENT_NDP_AWARE_H
