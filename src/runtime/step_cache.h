/**
 * @file
 * An inert stand-in for the deleted process memo of simulated runs.
 *
 * The engine keeps nothing between runs: `simulate_inference()` compiles
 * and executes every spec it is given, and each `Server`'s own tables
 * are the only memo, living as long as one serve.  This header exists
 * only because the benchmark harness (`perfbench/workloads.cc`) still
 * clears this type and reads its counters around each iteration; every
 * member is a no-op or 0.  Nothing else may include it.  It is deleted
 * with the next change to the benchmark harness.
 */
#ifndef HELM_RUNTIME_STEP_CACHE_H
#define HELM_RUNTIME_STEP_CACHE_H

#include <cstddef>
#include <cstdint>

namespace helm::runtime {

/** Holds nothing: every count is 0 and clear() does nothing. */
struct StepScheduleCache
{
    void clear() {}
    std::size_t size() const { return 0; }
    std::uint64_t hits() const { return 0; }
    std::uint64_t misses() const { return 0; }
    std::uint64_t stream_hits() const { return 0; }
};

/** The one (empty) instance the benchmark harness reads. */
inline StepScheduleCache &
step_cache()
{
    static StepScheduleCache cache;
    return cache;
}

} // namespace helm::runtime

#endif // HELM_RUNTIME_STEP_CACHE_H
