/**
 * @file
 * Deterministic data-parallel fan-out.
 *
 * parallel_for(count, jobs, fn) invokes fn(0..count-1), each index
 * exactly once, on min(jobs, count) threads that it starts, which claim
 * indices one at a time, and joins before it returns.
 * Determinism contract: callers write results into index-addressed
 * slots (parallel_map does exactly that), so the assembled output —
 * every Dataset, CSV, table, and golden test built from it — is
 * bit-for-bit identical to the jobs=1 sequential run regardless of how
 * the indices interleave.  Any per-point randomness must be seeded
 * from the point index, never drawn from shared state.
 *
 * Exceptions thrown by fn are caught per index; after every index has
 * run, the exception with the *lowest* index is rethrown in the caller
 * — the same one a sequential run would have surfaced first.
 *
 * Nested fan-out (fn itself calling parallel_for) executes the inner
 * loop inline on the calling worker: correct, deadlock-free, and free
 * of thread explosion.
 */
#ifndef HELM_EXEC_PARALLEL_H
#define HELM_EXEC_PARALLEL_H

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace helm::exec {

/** Worker count a jobs knob resolves to: 0 = all hardware threads
 *  (at least one). */
std::size_t resolve_jobs(std::size_t jobs);

/**
 * Run fn(i) for every i in [0, count), each exactly once.
 * @param jobs Worker threads; 0 = hardware concurrency, 1 = run inline
 *        sequentially (exact legacy behavior, no threads, no catch).
 */
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)> &fn);

/**
 * Map i -> fn(i) into a vector whose slot i holds fn(i): output order
 * is index order no matter the schedule.  T must be default
 * constructible and movable.
 */
template <typename T, typename Fn>
std::vector<T>
parallel_map(std::size_t count, std::size_t jobs, Fn &&fn)
{
    std::vector<T> out(count);
    parallel_for(count, jobs,
                 [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace helm::exec

#endif // HELM_EXEC_PARALLEL_H
