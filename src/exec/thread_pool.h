/**
 * @file
 * Fixed-size thread pool, stdlib only.
 *
 * A deliberately simple execution backend for the evaluation layer: N
 * worker threads draining one FIFO queue behind a mutex + condition
 * variable.  No work stealing, no priorities, no futures — the callers
 * that need result plumbing (exec/parallel.h) build it on top with
 * index-addressed slots, which is what keeps parallel sweeps
 * bit-for-bit identical to their sequential runs.
 *
 * Lifecycle guarantee: the destructor *drains* the queue — every task
 * already submitted (including tasks submitted by running tasks) is
 * executed before the workers join.  Tasks must not throw; wrap
 * fallible work in a catch-all and ferry the error out by hand (see
 * parallel_for for the pattern).
 */
#ifndef HELM_EXEC_THREAD_POOL_H
#define HELM_EXEC_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace helm::exec {

/** Fixed worker count, FIFO queue, drain-on-destruction. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (clamped to at least 1). */
    explicit ThreadPool(std::size_t threads);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p task.  Safe from any thread, including a pool worker
     * (a nested submit lands in the same queue and is still executed
     * before destruction completes).  Tasks must not throw.
     */
    void submit(std::function<void()> task);

    /** std::thread::hardware_concurrency(), clamped to at least 1. */
    static std::size_t default_jobs();

  private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable ready_;
    bool stopping_ = false;
};

} // namespace helm::exec

#endif // HELM_EXEC_THREAD_POOL_H
