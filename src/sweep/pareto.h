/**
 * @file
 * ParetoExplorer: sweep placements across the device zoo into a
 * cost/latency Pareto frontier.
 *
 * The paper evaluates six fixed memory configurations (Table II/III);
 * the zoo opens that set up (NDP-DIMM, HBF) and this explorer answers
 * the operator's question across all of them: *which box do I buy for
 * a target latency?*  It enumerates device x placement x batch x
 * compute-site up front as ServingSpecs, evaluates them through
 * sweep::evaluate (parallel over --jobs, reduced in enumeration order
 * so the report is byte-identical at any jobs value), prices each box
 * with the CostModel, and marks the non-dominated (cost-per-token,
 * TBT) points.
 *
 * The HBF section demonstrates a model size no paper tier admits.
 */
#ifndef HELM_SWEEP_PARETO_H
#define HELM_SWEEP_PARETO_H

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/cost_model.h"
#include "common/status.h"
#include "gpu/gpu.h"
#include "model/footprint.h"
#include "model/transformer.h"
#include "runtime/metrics.h"

namespace helm::sweep {

/** The explorer's search space and execution knobs. */
struct ExploreOptions
{
    /** Model of the main grid (the HBF demonstration uses its own). */
    model::TransformerConfig model;
    bool compress_weights = true;
    model::SequenceShape shape; //!< default 128 in / 21 out (paper)
    /** Devices to sweep; empty = the whole builtin registry. */
    std::vector<std::string> devices;
    std::vector<std::uint64_t> batches{1, 8, 32};
    /** Point-evaluation threads; the report is identical at any value. */
    std::size_t jobs = 1;
    gpu::GpuSpec gpu = gpu::GpuSpec::a100_40gb();
    CostModel cost;
    /** Run the HBF capacity demonstration (a ~1.9 TB fp16 model only
     *  the 10 TiB flash tier can host). */
    bool include_hbf_exclusive = true;
};

/** One evaluated grid point. */
struct ParetoPoint
{
    std::string device;
    std::string placement; //!< scheme name
    std::string site;      //!< compute-site mode name ("gpu" | "auto")
    std::uint64_t batch = 1;
    bool ok = false;       //!< simulation succeeded
    /** Host/storage weight bytes fit the device's stated capacity.
     *  The engine deliberately allows "ideal" over-capacity runs
     *  (Sec. V-C all-CPU DRAM); a purchasable box must actually fit. */
    bool feasible = false;
    Seconds ttft = 0.0;
    Seconds tbt = 0.0;
    double throughput = 0.0;
    std::uint64_t ndp_steps = 0; //!< steps executed near-data
    double system_dollars = 0.0;
    double cost_per_token = 0.0;
    /** Non-dominated on (cost_per_token, tbt) among ok+feasible points. */
    bool on_frontier = false;
};

/** All-CPU DRAM vs All-CPU NDP-DIMM (site=auto) at the same batch. */
struct NdpComparison
{
    bool valid = false; //!< both points present and ok
    std::uint64_t batch = 0;
    Seconds dram_tbt = 0.0;
    Seconds ndp_tbt = 0.0;
    bool ndp_dominates = false; //!< strictly lower TBT near-data
};

/** The HBF capacity demonstration. */
struct HbfExclusive
{
    bool ran = false;
    std::string model;
    Bytes weight_bytes = 0; //!< fp16 stored size
    std::size_t devices = 0;   //!< registered devices checked
    std::size_t admitting = 0; //!< devices that fit the model
    bool only_hbf = false;     //!< HBF is the sole admitting device
    Seconds tbt = 0.0;         //!< the HBF run's decode latency
    double throughput = 0.0;
    /** Endurance accounting: installing the weights is one full write
     *  of the model into flash; the budget bounds reinstalls. */
    Bytes endurance_budget = 0;
    std::uint64_t installs_supported = 0;
};

/** Everything explore() produces, in deterministic order. */
struct ParetoReport
{
    std::vector<ParetoPoint> points; //!< enumeration order
    std::size_t frontier_size = 0;
    NdpComparison ndp_vs_dram;
    HbfExclusive hbf;
};

/**
 * Run the exploration.  Fails with kInvalidArgument on an unknown
 * device name or empty batch list; individual infeasible grid points
 * are recorded per point, never abort the grid.
 */
Result<ParetoReport> explore(const ExploreOptions &options);

/**
 * Deterministic text rendering of a report (tables + summary lines).
 * bench_pareto compares the jobs=1 and jobs=N renderings byte for
 * byte; the CLI prints it.
 */
std::string report_text(const ParetoReport &report);

} // namespace helm::sweep

#endif // HELM_SWEEP_PARETO_H
