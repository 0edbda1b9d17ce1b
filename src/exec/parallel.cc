#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace helm::exec {

namespace {

/** Set while a parallel_for worker runs fn: nested fan-out goes inline. */
thread_local bool t_inside_parallel_worker = false;

} // namespace

std::size_t
resolve_jobs(std::size_t jobs)
{
    if (jobs != 0)
        return jobs;
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void
parallel_for(std::size_t count, std::size_t jobs,
             const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    const std::size_t workers =
        std::min(resolve_jobs(jobs), count);
    if (workers <= 1 || t_inside_parallel_worker) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Dynamic index claiming: cheap load balancing, and harmless for
    // determinism because every result lands in its own slot.
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr first_error;
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&] {
            t_inside_parallel_worker = true;
            while (true) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    break;
                try {
                    fn(i);
                } catch (...) {
                    // Remaining indices still run; the lowest-index
                    // exception wins so the rethrow below matches what
                    // a sequential run would have thrown.
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (i < first_error_index) {
                        first_error_index = i;
                        first_error = std::current_exception();
                    }
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace helm::exec
