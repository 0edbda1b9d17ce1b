/**
 * @file
 * FIFO-queued unit resource and a countdown latch.
 *
 * FifoResource models an execution engine that runs one activity at a
 * time — a GPU's compute stream, the near-data processor.
 * CountdownLatch joins fan-in dependencies ("compute of layer j AND load
 * of layer j+1 both done").
 */
#ifndef HELM_SIM_RESOURCE_H
#define HELM_SIM_RESOURCE_H

#include <cstddef>
#include <deque>
#include <functional>

#include "common/status.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace helm::sim {

/**
 * A unit-capacity execution engine with FIFO admission: a request waits,
 * in arrival order, while the resource is held or others are waiting.
 */
class FifoResource
{
  public:
    /** @param simulator Owning kernel; must outlive the resource. */
    explicit FifoResource(Simulator &simulator);

    FifoResource(const FifoResource &) = delete;
    FifoResource &operator=(const FifoResource &) = delete;

    /**
     * Hold the resource for @p duration, then release it and invoke
     * @p on_done — the "occupy the GPU for t_compute" pattern.  A free
     * resource is taken synchronously; otherwise the request waits, and
     * each release admits the next waiter via a zero-delay event, so a
     * release never runs a waiter's code synchronously.  The resource
     * counts as taken until that admission fires.
     */
    void occupy(Seconds duration, std::function<void()> on_done);

    /** Cumulative busy time integrated over holders (utilization probe). */
    Seconds busy_time() const;

    /** Add @p busy to the integral: holds a closed form timed in the
     *  kernel's place. */
    void book(Seconds busy) { busy_accum_ += busy; }

  private:
    void release();
    void update_busy_integral();

    Simulator &simulator_;
    std::size_t in_use_ = 0;
    /** A release handed the resource to a waiter whose zero-delay
     *  admission has not fired yet. */
    bool admitting_ = false;
    std::deque<std::function<void()>> waiters_;
    // busy-time integral bookkeeping
    Seconds busy_accum_ = 0.0;
    Seconds last_change_ = 0.0;
};

/**
 * Fires a callback after count() completions — the join node of a fork/join
 * dependency graph.
 */
class CountdownLatch
{
  public:
    /**
     * @param count Number of arrive() calls required; zero fires
     *              immediately when the callback is set.
     */
    explicit CountdownLatch(std::size_t count) : remaining_(count) {}

    /** Set the completion callback (must be called exactly once). */
    void on_zero(std::function<void()> fn);

    /** Signal one completion. */
    void arrive();

  private:
    std::size_t remaining_;
    std::function<void()> callback_;
    bool fired_ = false;
};

} // namespace helm::sim

#endif // HELM_SIM_RESOURCE_H
