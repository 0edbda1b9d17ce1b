/**
 * @file
 * Declarative parameter sweeps over the serving simulator.
 *
 * A SweepRunner enumerates the cartesian product of named dimensions
 * and evaluates a callback at each point, collecting point + metrics
 * into a Dataset.  ServingSweep specializes it for ServingSpec knobs so
 * the CLI (and user code) can sweep model x memory x placement x batch
 * x ... in one declaration.
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
    /**
     * Called after each point completes as progress(done, total).
     * Invocations are serialized by the runner but arrive in
     * completion order, not enumeration order.
     */
    std::function<void(std::size_t, std::size_t)> progress;
};

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
     * column).  Each point is simulated through
     * runtime::simulate_point(); nothing is reused across points or
     * calls.  The Dataset is identical at any jobs value.
     */
    Dataset run(const SweepOptions &options = {}) const;

    /** True when @p name is a recognized dimension. */
    static bool is_recognized(const std::string &name);

  private:
    runtime::ServingSpec base_;
    SweepRunner runner_;
};

} // namespace helm::sweep

#endif // HELM_SWEEP_SWEEP_H
