/**
 * @file
 * Request-level serving: the scheduler family in front of the engine,
 * and the FCFS batcher every backend shares.
 *
 * The engine simulates one fixed-shape batch; a serving system sees
 * individual requests arriving over time.  `Server` bridges the two
 * under a `ServingConfig`-selected scheduler:
 *
 *  - fcfs:        the dynamic batcher — a formed batch runs to
 *                 completion;
 *  - continuous:  iteration-level continuous batching — the running
 *                 batch re-forms at every decode-iteration boundary
 *                 (finished requests retire immediately, free slots
 *                 admit new prefills), tenant queues drain
 *                 round-robin;
 *  - edf:         continuous batching ordered by earliest deadline,
 *                 with preemption — a preempted request's KV pages
 *                 demote to the host tiers and promote back on
 *                 resume, every byte charged through the DES as
 *                 overlap or exposed stall.
 *
 * Admission is sized once, by size_admission(), and the FCFS batcher
 * is one loop, run_fcfs(), behind a launch seam that returns what a
 * formed batch cost: `Server` launches on the single-GPU engine,
 * `cluster::ClusterServer` on a sharded tensor/pipeline run.  The
 * replica cluster dispatches per GPU on one contended fabric but forms
 * its batches and reports through the same pieces (form_batch,
 * record_batch, finalize_serving_report).
 *
 * One value names a batch run everywhere: BatchShape, its member count
 * and padded (prompt, output).  form_batch() builds it, the launch
 * seam passes it, the FCFS memos key on it, and batch_spec() turns it
 * into the engine's ServingSpec.  The continuous/EDF iteration probes
 * build one per first-seen (count, KV-block bucket) and keep only its
 * cost, in a dense table.
 *
 * This is the regime where the paper's HeLM (latency-optimizing) vs.
 * All-CPU (throughput-optimizing) trade-off actually shows up: at low
 * arrival rates per-batch latency dominates, at high rates queueing
 * does, and the placement that wins flips (Secs. V-B/V-C).  Request-
 * level contention — bursty multi-tenant mixes with deadlines — is
 * where iteration-level scheduling splits from FCFS.
 */
#ifndef HELM_RUNTIME_SCHEDULER_H
#define HELM_RUNTIME_SCHEDULER_H

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "model/footprint.h"
#include "runtime/backend.h"
#include "runtime/engine.h"
#include "runtime/serving_config.h"
#include "telemetry/attribution.h"
#include "workload/arrival.h"
#include "workload/workload.h"

namespace helm::runtime {

/** What one completed request experienced. */
struct RequestMetrics
{
    std::uint64_t id = 0;
    std::uint64_t tenant = 0;       //!< owning tenant queue
    std::uint64_t prompt_tokens = 0;
    std::uint64_t output_tokens = 0;
    std::uint64_t batch_index = 0;  //!< which formed batch served it
    Seconds arrival = 0.0;
    Seconds queueing_delay = 0.0;   //!< arrival -> batch launch
    Seconds ttft = 0.0;             //!< arrival -> first token
    Seconds tbt = 0.0;              //!< mean time between tokens
    Seconds e2e_latency = 0.0;      //!< arrival -> last token
    bool slo_met = true;
    /** Absolute completion deadline (0 = none). */
    Seconds deadline = 0.0;
    /** false only when a deadline was set and completion missed it. */
    bool deadline_met = true;
    /** Times the EDF scheduler preempted this request. */
    std::uint64_t preemptions = 0;
};

/** Per-tenant aggregate over one serving run (continuous/edf). */
struct TenantStats
{
    std::uint64_t tenant = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t tokens = 0;        //!< generated by completed requests
    std::uint64_t slo_met = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t preemptions = 0;
    /** Scheduling rounds where a later-arriving request of another
     *  tenant was admitted over this tenant's waiting head. */
    std::uint64_t starvation_events = 0;
    Seconds mean_ttft = 0.0;
    Seconds max_queue_wait = 0.0;    //!< worst arrival -> first-schedule
};

/** Per-request metrics aggregated over one serving run. */
struct ServingReport
{
    std::vector<RequestMetrics> requests; //!< dispatch order
    /** Shed requests: queue overflow or KV capacity (see kv_rejected). */
    std::vector<std::uint64_t> rejected_ids;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    /** Of the rejected, how many were shed because their padded context
     *  can never fit the managed KV tiers (subset of rejected). */
    std::uint64_t kv_rejected = 0;
    std::uint64_t batches_formed = 0;
    std::uint64_t max_queue_depth = 0; //!< peak waiting requests
    double mean_batch_size = 0.0;
    Seconds makespan = 0.0;        //!< first arrival -> last completion
    std::uint64_t total_tokens = 0; //!< generated by completed requests
    double throughput = 0.0;        //!< generated tokens/s over makespan
    /** Generated tokens/s counting only SLO-met requests. */
    double goodput = 0.0;
    /** Fraction of completed requests that met the SLO. */
    double slo_attainment = 0.0;
    /** Completed requests that finished after their deadline. */
    std::uint64_t deadline_misses = 0;

    // ---- Continuous/EDF extensions (zero under fcfs) -----------------
    SchedulerKind scheduler = SchedulerKind::kFcfs;
    /** Iteration boundaries the continuous scheduler processed
     *  (prefill + decode iterations). */
    std::uint64_t iterations = 0;
    std::uint64_t preemptions = 0;  //!< requests swapped out (EDF)
    std::uint64_t resumes = 0;      //!< swapped-out requests resumed
    /** KV bytes demoted GPU -> host by preemption swap-out. */
    Bytes kv_demoted_bytes = 0;
    /** KV bytes promoted host -> GPU on resume. */
    Bytes kv_promoted_bytes = 0;
    /** Swap time the iteration clock could not hide behind compute. */
    Seconds kv_swap_exposed_seconds = 0.0;
    /** Every demote/promote interval in channel-grant order; the bytes
     *  tile kv_demoted_bytes / kv_promoted_bytes exactly.  Feeds the
     *  chrome-trace swap track.  Empty under fcfs. */
    std::vector<KvSwapEvent> kv_swap_events;
    /** Scheduling rounds that admitted a later arrival over a waiting
     *  head-of-queue request (summed over tenants). */
    std::uint64_t starvation_events = 0;
    /** Jain fairness index over per-tenant generated tokens; 1.0 =
     *  perfectly even, 1/n = one tenant took everything.  0 when no
     *  tokens were generated. */
    double jain_fairness = 0.0;
    /** Per-tenant aggregates, tenant-id order (continuous/edf only). */
    std::vector<TenantStats> tenants;

    /** Nearest-rank percentile of per-request queueing delay. */
    Seconds queueing_delay_percentile(double p) const;
    /** Nearest-rank percentile of per-request TTFT. */
    Seconds ttft_percentile(double p) const;
    /** Nearest-rank percentile of per-request mean TBT. */
    Seconds tbt_percentile(double p) const;
    /** Nearest-rank percentile of per-request end-to-end latency. */
    Seconds e2e_percentile(double p) const;
};

/**
 * Size the batch ceiling and the managed-KV admission bound of @p spec
 * under @p config, against the KV geometry @p kv_model and the staging
 * sizes of the layers — the full model on one GPU, one shard's slice on
 * a cluster.  An auto ceiling is the largest effective batch that fits
 * HBM with every weight spilled off, at the template shape under FCFS
 * and at the largest iteration probe (probe_bucket()) under
 * continuous/EDF; managed tiers (the GPU tier's
 * auto capacity resolved the way the engine will) then cap it by how
 * many template-shape requests they hold.  kCapacityExceeded when not
 * even one template-shape request fits.
 */
Result<AdmissionGeometry>
size_admission(const ServingSpec &spec, const ServingConfig &config,
               const model::TransformerConfig &kv_model,
               const StagingSizes &staging);

/** The checks every backend's submit() applies to one request. */
Status check_submission(const workload::TimedRequest &timed);

/** @p timed's absolute deadline: its own, else arrival + the config's
 *  default deadline when one is set, else 0 (none).  Every scheduler
 *  reads deadlines through this. */
Seconds request_deadline(const workload::TimedRequest &timed,
                         const ServingConfig &config);

/** Stable-sort @p pending by arrival: FCFS order. */
void sort_by_arrival(std::vector<workload::TimedRequest> &pending);

/**
 * What identifies one batch run.  FlexGen pads a batch to its longest
 * prompt and longest output, so its timing depends on the member count
 * and the padded shape alone.  Ordered by (count, prompt, output): the
 * key of every serving memo.
 */
struct BatchShape
{
    std::uint64_t count = 0;
    model::SequenceShape shape;

    auto operator<=>(const BatchShape &) const = default;
};

/** @p base run as one batch of @p batch: its count and padded shape, a
 *  single repeat, per-step records only when @p keep_records. */
ServingSpec batch_spec(const ServingSpec &base, const BatchShape &batch,
                       bool keep_records);

/**
 * Where a continuous/EDF iteration probe puts a live context: whole KV
 * blocks of the spec's block size (its managed tiers' block, else the
 * default one), so the probe table stays small while the cost still
 * grows with the context.  Server::iteration_cost() simulates
 * `tokens`; size_admission() sizes an auto ceiling for the longest
 * context the template shape decodes at.
 */
struct ProbeBucket
{
    std::uint64_t index = 0;  //!< blocks covering the context
    std::uint64_t tokens = 0; //!< those blocks' tokens
};

/** The probe bucket of @p tokens live tokens under @p spec. */
ProbeBucket probe_bucket(const ServingSpec &spec, std::uint64_t tokens);

/** One batch popped off an FCFS queue. */
struct FormedBatch
{
    std::vector<std::size_t> members; //!< indices into the stream
    BatchShape shape{0, {0, 0}}; //!< members.size(), padded lengths
};

/**
 * Pop up to admission.ceiling requests off @p queue (indices into
 * @p pending) while the batch fits the managed KV tiers at the shape it
 * runs at: every member padded to the longest prompt plus the longest
 * output admitted.  A
 * request that cannot fit even alone is shed into @p report
 * (rejected_ids, kv_rejected).  Empty when every candidate was shed.
 */
FormedBatch form_batch(std::deque<std::size_t> &queue,
                       const std::vector<workload::TimedRequest> &pending,
                       const AdmissionGeometry &admission,
                       ServingReport &report);

/** What one launched batch cost, relative to its launch. */
struct BatchCost
{
    Seconds ttft = 0.0;
    Seconds tbt = 0.0;
    Seconds total_time = 0.0;
};

/**
 * Append one RequestMetrics per member of batch @p batch_index,
 * launched at @p launch and done at @p done (cost.ttft and cost.tbt
 * are the batch's own); SLOs are judged under @p config.
 */
void record_batch(ServingReport &report,
                  const std::vector<workload::TimedRequest> &pending,
                  const std::vector<std::size_t> &members,
                  std::uint64_t batch_index, Seconds launch, Seconds done,
                  const BatchCost &cost, const ServingConfig &config);

/**
 * Fill the report aggregates a batching run derives from its requests
 * and batches_formed: counts, mean batch size, tokens, deadline misses,
 * throughput, goodput and SLO attainment over a makespan from the
 * earliest served arrival to @p last_completion.
 */
void finalize_serving_report(ServingReport &report, Seconds last_completion);

/** Run one formed batch launched at @p launch as batch @p batch_index;
 *  return its cost. */
using LaunchBatch = std::function<Result<BatchCost>(
    const BatchShape &batch, Seconds launch, std::uint64_t batch_index)>;

/**
 * The single-queue FCFS batcher.  Sorts @p pending by arrival, sheds
 * arrivals that find config.max_queue_length waiting, and launches a
 * batch when it fills, when its head has waited config.max_queue_delay
 * past the moment it could start, or once no further arrival can join
 * — whichever comes first.  Batches serialize: the next launches no
 * earlier than the previous one's launch + total_time.
 */
Result<ServingReport> run_fcfs(std::vector<workload::TimedRequest> &pending,
                               const AdmissionGeometry &admission,
                               const ServingConfig &config,
                               const LaunchBatch &launch);

/**
 * Request-level serving facade over the engine — the single-GPU
 * `ServingBackend`.
 *
 * Construct via create() (validates the spec and the config up front so
 * the CLI, benches, and library users all see the same errors before a
 * simulation runs), submit() requests with arrival times, then serve()
 * once to drive the whole stream and collect the report.
 *
 * @code
 *   auto server = Server::create(spec, config);
 *   server->submit(*workload::generate_arrivals(arrivals));
 *   auto report = server->serve();
 *   std::cout << report->ttft_percentile(99.0);
 * @endcode
 */
class Server : public ServingBackend
{
  public:
    /**
     * Validate @p base (its batch/shape/repeats fields act as the
     * template for formed batches) and @p config; auto-size the batch
     * ceiling when config.auto_max_batch.  kCapacityExceeded when not
     * even a single request fits the GPU.
     */
    static Result<Server> create(ServingSpec base,
                                 ServingConfig config = {});

    using ServingBackend::submit;

    /** Queue one request; its arrival must not precede earlier
     *  submits.  The deadline (if any) rides along for EDF. */
    Status submit(const workload::TimedRequest &timed) override;

    /**
     * Serve every submitted request to completion and clear the queue,
     * under the configured scheduler.
     */
    Result<ServingReport> serve() override;

    /**
     * Collect telemetry during serve(): accumulate the time attribution
     * of every launched batch (exactly — idle closes the gap to the
     * makespan) and, when @p collect_records, keep per-step records
     * shifted to serving time for trace export.  Scheduling decisions
     * and the returned report are unaffected.
     */
    void
    enable_telemetry(bool collect_records) override
    {
        telemetry_ = true;
        collect_records_ = collect_records;
    }

    /** Time attribution accumulated by serve(); wall() == makespan and
     *  attributed_total() == wall() by construction. */
    const telemetry::TimeAttribution &attribution() const override
    {
        return attribution_;
    }

    /** Per-step records in serving time (enable_telemetry(true) only). */
    const std::vector<LayerStepRecord> &serving_records() const override
    {
        return records_;
    }

    /** The engine's h2d fabric rate — the shared host port a serve
     *  run's trace utilization counters are scaled by.  Zero until a
     *  batch has run. */
    Bandwidth h2d_rate() const { return h2d_rate_; }

    double trace_port_rate() const override { return h2d_rate_.raw(); }

    /** The admission bounds create() sized on the full model. */
    const AdmissionGeometry &admission() const override
    {
        return admission_;
    }

    const ServingSpec &spec() const { return base_; }
    const ServingSpec &serving_spec() const override { return base_; }
    const ServingConfig &config() const { return config_; }

  private:
    Server(ServingSpec base, ServingConfig config,
           AdmissionGeometry admission)
        : base_(std::move(base)), config_(config), admission_(admission)
    {}

    /** One memoized FCFS batch shape: the engine metrics, plus the
     *  attribution and records when it ran with telemetry on. */
    struct ShapeRun
    {
        InferenceMetrics metrics;
        bool traced = false; //!< attribution and records are valid
        telemetry::TimeAttribution attribution;
        std::vector<LayerStepRecord> records;
    };

    /** The memoized run of @p batch, simulating it on a miss — or
     *  when telemetry is on and the shape was cached untraced. */
    Result<const ShapeRun *> run_shape(const BatchShape &batch);

    /** runtime::run_fcfs() launching on the engine via run_shape(). */
    Result<ServingReport> run_fcfs();

    /** What one continuous/EDF iteration costs: the TBT of a decode
     *  step (@p decode) or the TTFT of a prefill of @p count members
     *  at @p tokens of context or prompt, rounded up to a KV-block
     *  bucket.  Simulated without records on the first probe. */
    Result<Seconds> iteration_cost(bool decode, std::uint64_t count,
                                   std::uint64_t tokens);

    /** Iteration-level continuous batching / EDF (continuous.cc). */
    Result<ServingReport> run_continuous();

    ServingSpec base_;
    ServingConfig config_;
    AdmissionGeometry admission_;
    std::vector<workload::TimedRequest> pending_;
    std::map<BatchShape, ShapeRun> shapes_;
    /** iteration_cost() memo, [prefill, decode][count][bucket]; NaN
     *  until probed. */
    std::array<std::vector<std::vector<Seconds>>, 2> iteration_costs_;

    bool telemetry_ = false;
    bool collect_records_ = false;
    Bandwidth h2d_rate_;
    telemetry::TimeAttribution attribution_;
    std::vector<LayerStepRecord> records_;
};

} // namespace helm::runtime

#endif // HELM_RUNTIME_SCHEDULER_H
