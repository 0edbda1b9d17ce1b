/**
 * @file
 * Closed-loop client driver: the load generator behind
 * `helmsim gateway`.
 *
 * Open-loop arrival streams (workload/arrival.h) model clients who
 * send regardless of the system's state.  Real chat traffic is closed
 * loop: a client sends a turn, streams the answer, thinks, and only
 * then sends the next turn — so the offered load self-throttles under
 * slowdown, and admission rejects convert into retries after a think
 * time instead of an ever-growing queue.  This driver simulates N such
 * clients against a Gateway until a target number of turns completes
 * (the CI gate drives one million), entirely on the DES clock, and
 * reports client-edge latency samples plus the raw host-side
 * events/sec the run sustained.
 */
#ifndef HELM_SERVING_GATEWAY_DRIVER_H
#define HELM_SERVING_GATEWAY_DRIVER_H

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "serving_gateway/gateway.h"

namespace helm::gateway {

/** Client population and termination knobs. */
struct DriverConfig
{
    /** Concurrent closed-loop clients. */
    std::uint64_t clients = 256;
    /** Completed turns to reach before clients park; the run drains
     *  in-flight work after, so completions end >= this. */
    std::uint64_t target_requests = 10000;
    /** Turns per session before the client closes it and opens a new
     *  conversation. */
    std::uint64_t turns_per_session = 4;
    /** Mean think time between a completion and the next turn
     *  (exponential). */
    Seconds mean_think = 0.25;
    /** New prompt tokens per turn (context growth is the gateway's). */
    std::uint64_t prompt_tokens = 128;
    std::uint64_t output_tokens = 21;
    std::uint64_t seed = 42;
    /**
     * Retry budget: the run aborts issuing once total attempts
     * (opens + submits, including retries) exceed target_requests
     * times this factor — the livelock guard when the gateway sheds
     * everything.
     */
    std::uint64_t max_attempts_factor = 4;

    Status validate() const;
};

/** What one closed-loop run did. */
struct DriverReport
{
    std::uint64_t clients = 0;
    std::uint64_t target_requests = 0;
    std::uint64_t completed = 0; //!< turns fully streamed
    std::uint64_t attempts = 0;  //!< opens + submits, incl. retries
    std::uint64_t retries = 0;   //!< re-submits after a shed
    std::uint64_t parked_on_budget = 0; //!< clients that hit the guard
    Seconds sim_makespan = 0.0;  //!< virtual time the run spanned
    std::uint64_t events_executed = 0; //!< DES events the run fired
    double wall_seconds = 0.0;         //!< host time inside sim.run()
    double events_per_second = 0.0;    //!< events_executed / wall
    double requests_per_second = 0.0;  //!< completed / wall
    /** Client-edge samples, completion order.  Reduce with
     *  helm::percentile_nearest_rank, a linear-time selection: do not
     *  pre-sort. */
    std::vector<double> ttft;
    std::vector<double> tbt;
    std::vector<double> e2e;
    std::vector<double> queue_wait;
};

/**
 * Run the closed loop to completion: seeds @p clients think-timers,
 * drives @p gateway until the target is reached and in-flight turns
 * drain, and returns the report.  Fails when the gateway reports a
 * backend failure (Gateway::health()).
 */
Result<DriverReport> run_closed_loop(sim::Simulator &sim,
                                     Gateway &gateway,
                                     const DriverConfig &config);

} // namespace helm::gateway

#endif // HELM_SERVING_GATEWAY_DRIVER_H
