/**
 * @file
 * QoS-driven auto-tuner.
 *
 * The paper's conclusion calls for "improved weight placement
 * algorithms that can automatically make latency/throughput tradeoffs
 * based on desired quality of service requirements" — this is that
 * algorithm, built on the simulator: enumerate the placement/batching
 * design space (scheme, HeLM split points, batch, micro-batches, KV
 * offload), evaluate each candidate, filter by the TBT ceiling, and
 * return the best configuration for the chosen objective.
 */
#ifndef HELM_RUNTIME_TUNER_H
#define HELM_RUNTIME_TUNER_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/engine.h"

namespace helm::runtime {

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
    bool explore_micro_batches = true;
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
    ServingSpec spec;
    InferenceMetrics metrics;
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

/**
 * Run the search.  Fails with kNotFound if no candidate satisfies the
 * QoS constraint (or nothing fits at all).
 */
Result<TuneResult> auto_tune(const TuneRequest &request);

} // namespace helm::runtime

#endif // HELM_RUNTIME_TUNER_H
