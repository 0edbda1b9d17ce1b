/**
 * @file
 * The design-space explorer: enumerate a grid of ServingSpecs, evaluate
 * every point through one evaluator (simulate_point) on one fan-out
 * (evaluate), and reduce the results in enumeration order.
 *
 * Three reducers sit on it: a table (ServingSweep: model x memory x
 * placement x batch x ... into a Dataset), the best candidate under a
 * QoS ceiling (tuner.h) and the cost/latency frontier over the device
 * zoo (pareto.h).  SweepRunner is the generic cartesian runner under
 * the table, for callers whose points are not ServingSpecs.
 */
#ifndef HELM_SWEEP_SWEEP_H
#define HELM_SWEEP_SWEEP_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/engine.h"
#include "sweep/dataset.h"

namespace helm::sweep {

/** One axis of a sweep. */
struct Dimension
{
    std::string name;
    std::vector<std::string> values;
};

/**
 * Execution knobs for a sweep.  The defaults reproduce the historic
 * sequential behavior exactly; any jobs value produces the same
 * Dataset bit for bit (results are written into index-addressed slots
 * and assembled in enumeration order).
 */
struct SweepOptions
{
    /** Point-evaluation threads; 0 = all hardware threads, 1 = the
     *  exact legacy sequential path. */
    std::size_t jobs = 1;
};

/** Metrics-level outcome of one simulated spec (records dropped). */
struct SimPoint
{
    Status status;           //!< non-OK when the simulation failed
    runtime::InferenceMetrics metrics;
    Bytes gpu_used = 0;      //!< GpuBudget::used() at the run batch
    Bytes host_bytes = 0;    //!< weight bytes placed on the host tier
    Bytes disk_bytes = 0;    //!< weight bytes placed on the storage tier
    std::uint64_t ndp_steps = 0; //!< steps executed near-data

    bool is_ok() const { return status.is_ok(); }
};

/** Run one spec without records through runtime::simulate_inference()
 *  and fold the outcome into a SimPoint (errors included). */
SimPoint simulate_point(const runtime::ServingSpec &spec);

/**
 * simulate_point() over every spec on @p jobs threads (0 = all
 * hardware threads).  Each point writes its own slot, so the result is
 * in enumeration order and identical at any jobs value.
 */
std::vector<SimPoint> evaluate(const std::vector<runtime::ServingSpec> &specs,
                               std::size_t jobs);

/**
 * Cartesian-product runner.  Dimension order defines enumeration order
 * (last dimension varies fastest).
 */
class SweepRunner
{
  public:
    /** Evaluated at each point; returns metric columns to merge, or an
     *  error Status.  Errors are recorded in an "error" column rather
     *  than aborting the sweep (one infeasible point must not kill a
     *  grid). */
    using PointFn = std::function<Result<Row>(const Row &point)>;

    /** Add an axis; empty value lists are invalid. */
    Status add_dimension(const std::string &name,
                         std::vector<std::string> values);

    /** Number of points in the product. */
    std::size_t point_count() const;

    /** Run the sweep with @p options (sequential by default); the
     *  Dataset is identical to the sequential run at any jobs value. */
    Dataset run(const PointFn &fn, const SweepOptions &options = {}) const;

    /** Every point of the product, in enumeration order. */
    std::vector<Row> enumerate_points() const;

  private:
    std::vector<Dimension> dimensions_;
};

/**
 * ServingSpec-aware sweep: recognized dimension names are applied to a
 * base spec, the simulation runs, and standard metric columns
 * (ttft_ms, tbt_ms, tokens_per_s, gpu_used_bytes) come back.
 *
 * Recognized dimensions: "model" (zoo name), "memory" (any
 * `helmsim devices` name), "placement" (scheme name), "batch",
 * "micro_batches", "kv_offload" (0/1), "compress" (0/1),
 * "prompt_tokens", "output_tokens", "compute_site" (gpu | auto | ndp).
 */
class ServingSweep
{
  public:
    explicit ServingSweep(runtime::ServingSpec base) : base_(std::move(base))
    {
    }

    /** Add a recognized dimension; unknown names are rejected. */
    Status add_dimension(const std::string &name,
                         std::vector<std::string> values);

    std::size_t point_count() const { return runner_.point_count(); }

    /**
     * Run every point with @p options (infeasible points get an "error"
     * column).  The points are simulated through evaluate(); nothing
     * is reused across points or calls.  The Dataset is identical at
     * any jobs value.
     */
    Dataset run(const SweepOptions &options = {}) const;

  private:
    runtime::ServingSpec base_;
    SweepRunner runner_;
};

} // namespace helm::sweep

#endif // HELM_SWEEP_SWEEP_H
