/**
 * @file
 * Request arrival processes for the serving scheduler.
 *
 * The paper replays pre-formed fixed-size batches; a serving front end
 * instead sees individual requests arriving over time.  This module
 * synthesizes that stream — Poisson (the open-loop model ITME and the
 * KV-placement literature evaluate under) or fixed-interval — and can
 * save/load it as a trace file so experiments are replayable.  Only
 * sequence lengths matter for timing, so a trace row is just
 * (arrival_seconds, prompt_tokens, output_tokens).
 */
#ifndef HELM_WORKLOAD_ARRIVAL_H
#define HELM_WORKLOAD_ARRIVAL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "workload/workload.h"

namespace helm::workload {

/** One request tagged with its arrival time on the serving timeline. */
struct TimedRequest
{
    Request request;
    Seconds arrival = 0.0;
    /** Absolute completion deadline on the serving timeline; the EDF
     *  scheduler orders by it.  0 = no deadline. */
    Seconds deadline = 0.0;
};

/** How inter-arrival gaps are drawn. */
enum class ArrivalKind
{
    kPoisson, //!< exponential inter-arrival gaps (open-loop clients)
    kUniform, //!< fixed 1/rate gaps (a paced load generator)
    /** Poisson whose rate flips between `rate * burst_factor` (for
     *  `burst_duty` of each `burst_period`) and `rate` — flash-crowd
     *  traffic, the regime where iteration-level scheduling pays. */
    kBursty,
    /** Poisson whose rate follows a sinusoid over `burst_period`
     *  peaking at `rate * burst_factor` — a compressed diurnal cycle. */
    kDiurnal,
};

/** Parameters of a synthetic arrival stream. */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::kPoisson;
    double rate = 1.0;       //!< mean arrivals per second; must be > 0
    Seconds duration = 60.0; //!< generation horizon; must be > 0
    /** Stop after this many requests even inside the horizon (0 = off). */
    std::uint64_t max_requests = 0;
    std::uint64_t prompt_tokens = 128; //!< paper's input truncation
    std::uint64_t output_tokens = 21;  //!< paper's generation budget
    bool variable_lengths = false;     //!< sample C4-like prompt lengths
    std::uint64_t min_prompt = 16;     //!< floor when variable
    std::uint64_t seed = 0xA221A7ull;
    /** Tenants to tag arrivals with, round-robin (ids 0..tenants-1). */
    std::uint64_t tenants = 1;
    /** Relative completion deadline stamped on every request (absolute
     *  deadline = arrival + this); 0 = no deadline. */
    Seconds deadline = 0.0;
    /** kBursty/kDiurnal: peak-rate multiplier over the base rate. */
    double burst_factor = 8.0;
    /** kBursty/kDiurnal: modulation period in seconds. */
    Seconds burst_period = 20.0;
    /** kBursty: fraction of each period spent at the burst rate. */
    double burst_duty = 0.25;

    /** Rate and duration must be positive, token counts >= 1, burst
     *  knobs in range for the modulated kinds. */
    Status validate() const;
};

/**
 * Generate a deterministic arrival stream: nondecreasing times inside
 * [0, duration), ids assigned in arrival order starting at 0.
 */
Result<std::vector<TimedRequest>>
generate_arrivals(const ArrivalSpec &spec);

/**
 * Merge several arrival streams (e.g. one per tenant with different
 * rates and deadlines) into one, ordered by arrival time with ids
 * reassigned in merged order.  Ties keep the input-stream order.
 */
std::vector<TimedRequest>
merge_arrivals(const std::vector<std::vector<TimedRequest>> &streams);

/**
 * Load an arrival trace.  Format: one request per line as
 * "<arrival_seconds> <prompt_tokens> <output_tokens> [tenant]
 * [deadline_seconds]"; the last two columns are optional (0 when
 * absent), '#' starts a comment.  Times must be nondecreasing; ids
 * are assigned in file order.
 */
Result<std::vector<TimedRequest>>
load_arrival_trace(const std::string &path);

} // namespace helm::workload

#endif // HELM_WORKLOAD_ARRIVAL_H
