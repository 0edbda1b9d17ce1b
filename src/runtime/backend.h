/**
 * @file
 * ServingBackend — the one seam every request-level front end drives.
 *
 * `runtime::Server` (single GPU) and `cluster::ClusterServer` (multi
 * GPU) grew the same surface independently: submit requests with
 * arrival times, run once, read a ServingReport, pull telemetry.
 * helmsim's serve and cluster subcommands, and every serving bench,
 * duplicated the call sites.  This interface extracts the common
 * shape so callers hold a `ServingBackend &` and stop caring which
 * implementation sits behind it.  Both size admission with
 * runtime::size_admission() and report the bounds in force as one
 * AdmissionGeometry.
 */
#ifndef HELM_RUNTIME_BACKEND_H
#define HELM_RUNTIME_BACKEND_H

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "workload/arrival.h"
#include "workload/workload.h"

namespace helm::telemetry {
class TimeAttribution;
}

namespace helm::runtime {

struct LayerStepRecord;
struct ServingReport;
struct ServingSpec;

/**
 * The admission bounds a batcher enforces, sized by size_admission().
 * With managed KV tiers the engine pads every batch member to the
 * batch's longest context, so a member joins only while the padded
 * batch still fits kv_capacity_blocks.
 */
struct AdmissionGeometry
{
    static constexpr std::uint64_t kUnbounded =
        std::numeric_limits<std::uint64_t>::max();

    std::uint64_t ceiling = 1;         //!< requests per formed batch
    std::uint64_t kv_block_tokens = 0; //!< 0 = no managed KV tiers
    /** Whole-request KV blocks the tiers hold; kUnbounded when some
     *  tier is unbounded. */
    std::uint64_t kv_capacity_blocks = kUnbounded;
    /** Template-shape requests the tiers hold at once; 0 when the
     *  tiers are unmanaged or unbounded. */
    std::uint64_t kv_request_slots = 0;
    std::uint64_t micro_batches = 1; //!< KV replicas per member

    bool kv_bounded() const
    {
        return kv_block_tokens > 0 && kv_capacity_blocks != kUnbounded;
    }

    /** KV blocks @p count members padded to @p context tokens hold. */
    std::uint64_t padded_blocks(std::uint64_t count,
                                std::uint64_t context) const
    {
        return count * ((context + kv_block_tokens - 1) / kv_block_tokens) *
               micro_batches;
    }
};

/** Abstract request-level serving engine: create/submit/serve/report. */
class ServingBackend
{
  public:
    virtual ~ServingBackend() = default;

    /** Queue one request with its arrival time (and deadline). */
    virtual Status submit(const workload::TimedRequest &timed) = 0;

    /** Queue one request; @p arrival must not precede earlier submits. */
    Status
    submit(const workload::Request &request, Seconds arrival)
    {
        workload::TimedRequest timed;
        timed.request = request;
        timed.arrival = arrival;
        return submit(timed);
    }

    /** Queue a whole arrival stream. */
    Status
    submit(const std::vector<workload::TimedRequest> &stream)
    {
        for (const auto &timed : stream)
            HELM_RETURN_IF_ERROR(submit(timed));
        return Status::ok();
    }

    /** Serve every submitted request to completion and clear the
     *  queue; one report schema for every backend. */
    virtual Result<ServingReport> serve() = 0;

    /** Collect time attribution (and per-step records for trace
     *  export when @p collect_records) during serve(); scheduling
     *  decisions and the report are unaffected. */
    virtual void enable_telemetry(bool collect_records) = 0;

    /** Time attribution accumulated by serve(). */
    virtual const telemetry::TimeAttribution &attribution() const = 0;

    /** Per-step records of the served batches, in serving time
     *  (enable_telemetry(true) only; empty otherwise). */
    virtual const std::vector<LayerStepRecord> &
    serving_records() const = 0;

    /** The admission bounds in force (runtime::size_admission()). */
    virtual const AdmissionGeometry &admission() const = 0;

    /** The batch ceiling in force (auto-sized when the config said
     *  so). */
    std::uint64_t effective_max_batch() const
    {
        return admission().ceiling;
    }

    /** Managed-KV admission slots (0 = unmanaged/unbounded). */
    std::uint64_t kv_request_slots() const
    {
        return admission().kv_request_slots;
    }

    /** The host-port rate (bytes/s) the backend's chrome-trace
     *  utilization counters are scaled by; 0 until serve() ran. */
    virtual double trace_port_rate() const = 0;

    /** The per-GPU template spec the backend runs. */
    virtual const ServingSpec &serving_spec() const = 0;
};

} // namespace helm::runtime

#endif // HELM_RUNTIME_BACKEND_H
