/**
 * @file
 * The unified serving configuration: one struct for everything the
 * request-level schedulers consume.
 *
 * Batch formation, SLO targets, tenants, deadlines and preemption live
 * in one value with explicit `auto_*`/`enforce_*` booleans, and its
 * validate() names the offending helmsim flag in every error so a CLI
 * user, a bench, and a library caller all read the same diagnosis.
 */
#ifndef HELM_RUNTIME_SERVING_CONFIG_H
#define HELM_RUNTIME_SERVING_CONFIG_H

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/units.h"

namespace helm::runtime {

/** Which request-level scheduler forms batches. */
enum class SchedulerKind
{
    /**
     * PR 1's FCFS dynamic batcher: a formed batch runs to completion.
     * Bit-for-bit the pre-continuous serving path.
     */
    kFcfs,
    /**
     * Iteration-level continuous batching: the running batch re-forms
     * at every decode-iteration boundary (finished requests retire
     * immediately, free slots admit new prefills), tenant queues drain
     * round-robin.  No preemption.
     */
    kContinuous,
    /**
     * Continuous batching under earliest-deadline-first: the slot set
     * is rebuilt by deadline each boundary and may preempt running
     * requests; a preempted request's KV pages demote to the host
     * tiers and promote back on resume, charged through the DES.
     */
    kEdf,
};

/** Printable name ("fcfs", "continuous", "edf"). */
const char *scheduler_kind_name(SchedulerKind kind);

/** Parse a scheduler name as the CLI spells it, in any case. */
Result<SchedulerKind> parse_scheduler_kind(const std::string &name);

/**
 * Everything the serving schedulers consume, in one place.
 *
 * Replaces the 0-means-auto convention: `auto_max_batch` says whether
 * the ceiling is planner-sized, and `max_batch` is only read when it
 * is false.  SLO/deadline fields keep explicit `enforce_*`/`has_*`
 * booleans for the same reason.
 */
struct ServingConfig
{
    SchedulerKind scheduler = SchedulerKind::kFcfs;

    // ---- Batch formation ---------------------------------------------
    /** Size the batch ceiling from the planner's GPU-budget math. */
    bool auto_max_batch = true;
    /** Explicit batch ceiling; read only when !auto_max_batch. */
    std::uint64_t max_batch = 0;
    /** FCFS only: head-of-line wait for batch-mates. */
    Seconds max_queue_delay = 0.5;
    /** Admission cap: arrivals beyond this many waiting are shed. */
    std::uint64_t max_queue_length = 1024;

    // ---- SLO targets (goodput accounting) ----------------------------
    bool enforce_ttft = false;
    Seconds ttft_target = 0.0;
    bool enforce_e2e = false;
    Seconds e2e_target = 0.0;

    // ---- Tenants ------------------------------------------------------
    /** Distinct tenants the scheduler keeps separate queues for; the
     *  continuous scheduler drains them round-robin. */
    std::uint64_t tenants = 1;

    // ---- Deadlines / preemption (EDF) --------------------------------
    /** Stamp arrivals without a deadline with arrival + this value. */
    bool has_default_deadline = false;
    Seconds default_deadline = 0.0;
    /** Preemptions allowed per request before it becomes unpreemptible
     *  (livelock guard). */
    std::uint64_t max_preemptions = 4;
    /**
     * Overlap preempted-KV promotion with the running batch's decode
     * (the swap channel runs alongside compute; only the remainder is
     * exposed).  false = the resuming request's promotion blocks the
     * iteration it rejoins, exposing the full transfer.
     */
    bool overlap_kv_swap = true;

    /**
     * Field-range checks.  Every error names the helmsim flag that
     * sets the field, e.g. "(--max-preemptions)".
     */
    Status validate() const;
};

} // namespace helm::runtime

#endif // HELM_RUNTIME_SERVING_CONFIG_H
