/**
 * @file
 * QoS-driven auto-tuner.
 *
 * The paper's conclusion calls for "improved weight placement
 * algorithms that can automatically make latency/throughput tradeoffs
 * based on desired quality of service requirements" — this is that
 * algorithm, built on the simulator: enumerate the placement/batching
 * design space (scheme, HeLM split points, batch, micro-batches, KV
 * offload) into a grid, evaluate it (sweep::evaluate), filter by the
 * TBT ceiling, and return the best configuration for the chosen
 * objective.  The grid does not depend on the objective or the
 * ceiling, so one evaluated grid serves any number of reductions.
 */
#ifndef HELM_SWEEP_TUNER_H
#define HELM_SWEEP_TUNER_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sweep/sweep.h"

namespace helm::sweep {

/** What the operator optimizes for. */
enum class TuneObjective
{
    kLatency,    //!< minimize TBT
    kThroughput, //!< maximize tokens/s
};

/** Printable name. */
const char *tune_objective_name(TuneObjective objective);

/** The objective @p name names ("latency" / "throughput"), in any
 *  case. */
Result<TuneObjective> parse_tune_objective(const std::string &name);

/** The tuning problem. */
struct TuneRequest
{
    model::TransformerConfig model;
    /** The host to search on.  NDP-capable devices additionally
     *  enumerate compute-site candidates (near-data decode). */
    mem::HostSpec memory = mem::ConfigKind::kNvdram;
    bool compress_weights = true;
    model::SequenceShape shape;
    TuneObjective objective = TuneObjective::kThroughput;
    /** QoS constraint: candidates whose TBT exceeds this are rejected. */
    std::optional<Seconds> tbt_ceiling;
    std::uint64_t batch_limit = 512; //!< search ceiling
    /** Include KvCacheConfig::legacy_offload() candidates. */
    bool explore_kv_offload = true;
    gpu::GpuSpec gpu = gpu::GpuSpec::a100_40gb();
    /** Candidate-evaluation threads; 0 = all hardware threads.  Any
     *  value returns the same TuneResult: candidates are evaluated into
     *  index-addressed slots and reduced in enumeration order, so the
     *  tie-break ordering is unchanged. */
    std::size_t jobs = 1;
};

/** One evaluated point of the search. */
struct TuneCandidate
{
    runtime::ServingSpec spec;
    runtime::InferenceMetrics metrics;
    bool meets_qos = false;
    std::string describe() const;
};

/** The search outcome. */
struct TuneResult
{
    TuneCandidate best;
    std::vector<TuneCandidate> explored; //!< every feasible candidate
    std::size_t infeasible = 0;          //!< capacity-rejected points
};

/** The candidates of one request, in enumeration order. */
struct TuneGrid
{
    std::vector<runtime::ServingSpec> candidates;
    /** (scheme, KV placement) pairs no batch fits: never simulated. */
    std::size_t infeasible = 0;
};

/** Enumerate @p request's candidates; kInvalidArgument on an
 *  incomplete model, a zero batch_limit or an unknown host. */
Result<TuneGrid> tune_grid(const TuneRequest &request);

/**
 * Reduce @p grid, evaluated into @p points (one per candidate, as
 * evaluate() returns them), under @p request's objective and TBT
 * ceiling: ties keep the earlier candidate.  Fails with kNotFound if
 * no candidate satisfies the QoS constraint (or nothing fits at all).
 */
Result<TuneResult> best_of(const TuneRequest &request, const TuneGrid &grid,
                           const std::vector<SimPoint> &points);

/** tune_grid(), evaluate() on request.jobs threads, then best_of(). */
Result<TuneResult> auto_tune(const TuneRequest &request);

} // namespace helm::sweep

#endif // HELM_SWEEP_TUNER_H
