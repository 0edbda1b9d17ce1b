#include "cluster/cluster_server.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <span>
#include <utility>

#include "cluster/cluster_engine.h"
#include "cluster/router.h"
#include "common/log.h"
#include "common/summary.h"
#include "kvcache/kvcache.h"
#include "runtime/instrument.h"
#include "runtime/planner.h"
#include "runtime/schedule.h"

namespace helm::cluster {

using runtime::CompiledSchedule;
using runtime::RequestMetrics;
using runtime::ServingSpec;

namespace {

constexpr std::uint64_t kUnbounded =
    std::numeric_limits<std::uint64_t>::max();

/** The admission bounds one shard imposes on the batcher. */
struct AdmissionGeometry
{
    std::uint64_t ceiling = 1;
    std::uint64_t kv_block_tokens = 0;
    std::uint64_t kv_capacity_blocks = kUnbounded;
    std::uint64_t kv_request_slots = 0; //!< 0 = unmanaged/unbounded
};

/**
 * Mirror of runtime::Server::create()'s batch-ceiling and managed-KV
 * sizing, evaluated against the shard slice the batch actually runs on
 * (with the default geometry this reproduces Server::create exactly).
 */
Result<AdmissionGeometry>
admission_geometry(const ServingSpec &base,
                   const runtime::ShardGeometry &geo,
                   const runtime::ServingConfig &config)
{
    AdmissionGeometry out;
    std::uint64_t ceiling =
        config.auto_max_batch ? 0 : config.max_batch;
    if (ceiling == 0) {
        const std::uint64_t slots = runtime::max_batch(
            base.gpu, geo.kv_model, geo.layers, /*gpu_weight_bytes=*/0,
            base.shape, base.compress_weights, /*limit=*/4096,
            base.kv_resident_on_gpu());
        if (slots == 0) {
            return Status::capacity_exceeded(
                "not even one request fits the GPU at the template "
                "shape; cannot auto-size the scheduler batch");
        }
        ceiling = std::max<std::uint64_t>(slots / base.micro_batches, 1);
    }
    if (base.kv_cache.has_value()) {
        kvcache::KvCacheConfig kv_config = base.kv_config();
        for (kvcache::TierSpec &tier : kv_config.tiers) {
            if (tier.is_gpu && tier.auto_capacity) {
                const runtime::GpuBudget budget =
                    runtime::compute_gpu_budget(
                        base.gpu, geo.kv_model, geo.layers,
                        /*gpu_weight_bytes=*/0, base.shape,
                        ceiling * base.micro_batches,
                        base.compress_weights, /*kv_on_gpu=*/false);
                tier.capacity = std::max<Bytes>(budget.free_bytes(), 1);
                tier.auto_capacity = false;
            }
        }
        auto manager_or =
            kvcache::KvCacheManager::create(kv_config, geo.kv_model);
        if (!manager_or.is_ok())
            return manager_or.status();
        const kvcache::KvCacheManager &manager = *manager_or;
        const std::uint64_t max_context =
            base.shape.prompt_tokens + base.shape.output_tokens;
        const std::uint64_t slots =
            manager.request_slots(max_context, /*limit=*/4096);
        if (slots / base.micro_batches == 0) {
            return Status::capacity_exceeded(
                "managed KV tiers cannot hold even one request of the "
                "template shape (" + std::to_string(max_context) +
                " tokens x " + std::to_string(base.micro_batches) +
                " micro-batches)");
        }
        out.kv_block_tokens = kv_config.block_tokens;
        bool unbounded = false;
        std::uint64_t total_blocks = 0;
        for (const kvcache::TierSpec &tier : kv_config.tiers) {
            if (tier.capacity == 0)
                unbounded = true;
            else
                total_blocks += tier.capacity / manager.block_bytes();
        }
        if (!unbounded) {
            out.kv_capacity_blocks = total_blocks;
            out.kv_request_slots = slots;
            ceiling = std::min(ceiling, slots / base.micro_batches);
        }
    }
    out.ceiling = ceiling;
    return out;
}

/** Fill the count/rate-independent report aggregates (Server's tail). */
void
finalize_serving_report(runtime::ServingReport &report,
                        Seconds last_completion)
{
    report.completed = report.requests.size();
    report.rejected = report.rejected_ids.size();
    report.mean_batch_size =
        report.batches_formed > 0
            ? static_cast<double>(report.completed) /
                  static_cast<double>(report.batches_formed)
            : 0.0;
    Seconds first_arrival = 0.0;
    if (!report.requests.empty()) {
        first_arrival = report.requests.front().arrival;
        for (const RequestMetrics &r : report.requests)
            first_arrival = std::min(first_arrival, r.arrival);
    }
    report.makespan = last_completion - first_arrival;
    std::uint64_t slo_tokens = 0;
    std::uint64_t slo_met_count = 0;
    for (const RequestMetrics &r : report.requests) {
        report.total_tokens += r.output_tokens;
        if (r.slo_met) {
            slo_tokens += r.output_tokens;
            ++slo_met_count;
        }
    }
    if (report.makespan > 0.0) {
        report.throughput =
            static_cast<double>(report.total_tokens) / report.makespan;
        report.goodput =
            static_cast<double>(slo_tokens) / report.makespan;
    }
    report.slo_attainment =
        report.completed > 0
            ? static_cast<double>(slo_met_count) /
                  static_cast<double>(report.completed)
            : 0.0;
}

} // namespace

Result<ClusterServer>
ClusterServer::create(ClusterSpec spec)
{
    // The serving template's batch/shape/repeats act per formed batch;
    // pin them the way runtime::Server::create does.
    spec.serving.batch = std::max<std::uint64_t>(spec.serving.batch, 1);
    spec.serving.repeats = 1;
    HELM_RETURN_IF_ERROR(spec.validate());

    ClusterServer server(std::move(spec));
    ClusterSpec &cs = server.spec_;
    server.config_ = cs.config;

    if (cs.parallelism == Parallelism::kReplica && cs.gpus == 1) {
        // Bit-for-bit single-GPU serving: delegate wholesale.  This is
        // the only cluster shape that carries continuous/edf (validate
        // rejected them elsewhere).
        auto single_or =
            runtime::Server::create(cs.serving, server.config_);
        if (!single_or.is_ok())
            return single_or.status();
        server.max_batch_ = single_or->effective_max_batch();
        server.kv_request_slots_ = single_or->kv_request_slots();
        server.single_.emplace(std::move(*single_or));
        return server;
    }

    // The weakest shard bounds admission: tensor shards are uniform,
    // pipeline stages differ (every stage holds the whole batch's KV
    // for its own layers), replicas use the full-model geometry.
    auto plan_or = shard_plan(cs);
    if (!plan_or.is_ok())
        return plan_or.status();
    const bool uniform = cs.parallelism != Parallelism::kPipeline;
    std::uint64_t ceiling = kUnbounded;
    std::uint64_t slots = kUnbounded;
    std::uint64_t capacity = kUnbounded;
    for (const runtime::ShardOptions &shard : *plan_or) {
        auto geo_or = runtime::shard_geometry(cs.serving, shard);
        if (!geo_or.is_ok())
            return geo_or.status();
        auto adm_or =
            admission_geometry(cs.serving, *geo_or, server.config_);
        if (!adm_or.is_ok())
            return adm_or.status();
        ceiling = std::min(ceiling, adm_or->ceiling);
        capacity = std::min(capacity, adm_or->kv_capacity_blocks);
        if (adm_or->kv_request_slots > 0)
            slots = std::min(slots, adm_or->kv_request_slots);
        server.kv_block_tokens_ = adm_or->kv_block_tokens;
        if (uniform)
            break; // identical geometry on every GPU
    }
    server.max_batch_ = ceiling;
    server.kv_capacity_blocks_ = capacity;
    server.kv_request_slots_ = slots == kUnbounded ? 0 : slots;
    return server;
}

Status
ClusterServer::submit(const workload::TimedRequest &timed)
{
    if (timed.arrival < 0.0)
        return Status::invalid_argument("arrival time must be >= 0");
    if (timed.request.prompt_tokens < 1 ||
        timed.request.output_tokens < 1) {
        return Status::invalid_argument(
            "prompt and output token counts must be >= 1");
    }
    if (timed.deadline != 0.0 && timed.deadline < timed.arrival) {
        return Status::invalid_argument(
            "a request deadline must not precede its arrival");
    }
    pending_.push_back(timed);
    return Status::ok();
}

Result<runtime::ServingReport>
ClusterServer::serve()
{
    auto out = run();
    if (!out.is_ok())
        return out.status();
    last_records_ = std::move(out->records);
    last_gpus_ = std::move(out->gpus);
    last_ports_ = std::move(out->ports);
    return std::move(out->serving);
}

void
ClusterServer::enable_telemetry(bool collect_records)
{
    telemetry_ = true;
    collect_records_ = collect_records;
    if (single_.has_value())
        single_->enable_telemetry(collect_records);
}

Result<ClusterReport>
ClusterServer::run()
{
    const bool keep_records = spec_.serving.keep_records || telemetry_;
    if (single_.has_value()) {
        HELM_RETURN_IF_ERROR(single_->submit(pending_));
        pending_.clear();
        auto report_or = single_->serve();
        if (!report_or.is_ok())
            return report_or.status();
        ClusterReport out;
        out.serving = std::move(*report_or);
        GpuUtilization u;
        u.gpu = 0;
        u.batches = out.serving.batches_formed;
        u.requests = out.serving.completed;
        // The single-GPU Server does not track stream occupancy;
        // utilization stays 0 in the delegation path.
        out.gpus.push_back(u);
        trace_port_rate_ = single_->trace_port_rate();
        if (telemetry_) {
            attribution_ = single_->attribution();
            if (collect_records_)
                out.records = single_->collected_records();
        }
        return out;
    }
    auto out = spec_.parallelism == Parallelism::kReplica
                   ? run_replica_cluster(keep_records)
                   : run_sharded(keep_records);
    if (out.is_ok() && !out->ports.empty())
        trace_port_rate_ = out->ports.front().rate.raw();
    if (out.is_ok() && telemetry_) {
        // Close the cluster timeline: every GPU is accountable for the
        // whole makespan, so idle absorbs whatever the per-batch
        // attribution did not cover (load imbalance, queue gaps).
        const Seconds wall = static_cast<double>(spec_.gpus) *
                             out->serving.makespan;
        const Seconds total = attribution_.attributed_total();
        attribution_.add_idle(std::max(0.0, wall - total));
        attribution_.set_wall(
            std::max(wall, attribution_.attributed_total()));
        if (!collect_records_ && !spec_.serving.keep_records)
            out->records.clear();
    }
    return out;
}

Result<ClusterReport>
ClusterServer::run_replica_cluster(bool keep_records)
{
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const workload::TimedRequest &a,
                        const workload::TimedRequest &b) {
                         return a.arrival < b.arrival;
                     });

    ClusterReport out;
    runtime::ServingReport &report = out.serving;
    report.submitted = pending_.size();
    const std::uint64_t N = spec_.gpus;
    if (pending_.empty()) {
        for (std::uint64_t g = 0; g < N; ++g) {
            GpuUtilization u;
            u.gpu = g;
            out.gpus.push_back(u);
        }
        return out;
    }

    // Fabric sizing: replicas share one read-only weight copy on the
    // host tier; each GPU's KV overflow is private.
    auto template_or = runtime::compile_schedule(spec_.serving);
    if (!template_or.is_ok())
        return template_or.status();
    const CompiledSchedule &tmpl = *template_or;
    const Bytes resident =
        tmpl.host_weight_bytes +
        N * (tmpl.host_resident_bytes - tmpl.host_weight_bytes);
    runtime::Fabric fabric(
        N, spec_.serving.gpu,
        compute_port_rates(tmpl, spec_.sockets, resident));
    std::deque<runtime::Executor> jobs; //!< alive until the fabric drains

    const std::uint64_t cap = config_.max_queue_length;
    const std::uint64_t slots = std::min(max_batch_, cap);

    struct GpuState
    {
        std::deque<std::size_t> queue; //!< indices into pending_, FCFS
        bool busy = false;
        std::uint64_t inflight = 0;
        std::uint64_t batches = 0;
        std::uint64_t gen = 0; //!< invalidates stale deadline timers
    };
    std::vector<GpuState> gpus(N);
    std::vector<std::uint64_t> requests_per_gpu(N, 0);
    Router router(spec_.router, N, spec_.router_seed);
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
             std::shared_ptr<const CompiledSchedule>>
        memo;
    Seconds last_completion = pending_.front().arrival;
    Status error = Status::ok();

    const bool kv_bounded =
        kv_block_tokens_ > 0 && kv_capacity_blocks_ != kUnbounded;
    auto padded_blocks = [this](std::uint64_t count,
                                std::uint64_t context) {
        const std::uint64_t blocks =
            (context + kv_block_tokens_ - 1) / kv_block_tokens_;
        return count * blocks * spec_.serving.micro_batches;
    };

    std::function<void(std::uint64_t)> try_launch;
    std::function<void(std::uint64_t)> launch;

    launch = [&](std::uint64_t g) {
        GpuState &st = gpus[g];
        ++st.gen; // whatever timer was armed for the old head is stale
        workload::Batch batch;
        std::vector<std::size_t> members;
        std::uint64_t max_context = 0;
        while (!st.queue.empty() && batch.size() < max_batch_) {
            const workload::Request &request =
                pending_[st.queue.front()].request;
            if (kv_bounded) {
                const std::uint64_t context =
                    request.prompt_tokens + request.output_tokens;
                if (padded_blocks(1, context) > kv_capacity_blocks_) {
                    report.rejected_ids.push_back(request.id);
                    ++report.kv_rejected;
                    st.queue.pop_front();
                    continue;
                }
                const std::uint64_t grown =
                    std::max(max_context, context);
                if (padded_blocks(batch.size() + 1, grown) >
                    kv_capacity_blocks_)
                    break; // batch full by KV capacity
                max_context = grown;
            }
            members.push_back(st.queue.front());
            batch.requests.push_back(request);
            st.queue.pop_front();
        }
        if (members.empty()) {
            try_launch(g); // every candidate was shed; next head
            return;
        }
        const auto key = std::make_tuple(batch.size(),
                                         batch.max_prompt_tokens(),
                                         batch.max_output_tokens());
        std::shared_ptr<const CompiledSchedule> compiled;
        const auto cached = memo.find(key);
        if (cached != memo.end()) {
            compiled = cached->second;
        } else {
            ServingSpec spec = spec_.serving;
            spec.batch = batch.size();
            spec.shape = batch.shape();
            spec.repeats = 1;
            spec.keep_records = false;
            auto compiled_or = runtime::compile_schedule(spec);
            if (!compiled_or.is_ok()) {
                if (error.is_ok())
                    error = compiled_or.status();
                return;
            }
            compiled = std::make_shared<CompiledSchedule>(
                std::move(*compiled_or));
            memo.emplace(key, compiled);
        }
        st.busy = true;
        st.inflight = members.size();
        ++st.batches;
        requests_per_gpu[g] += members.size();
        const std::uint64_t batch_id = report.batches_formed++;
        const Seconds launch_t = fabric.sim().now();
        jobs.emplace_back(fabric, std::span(compiled.get(), 1), g);
        jobs.back().start(
            [&, g, members = std::move(members), launch_t,
             batch_id](const runtime::Executor &job) {
                const runtime::BatchTimeline tl =
                    job.timeline(keep_records, batch_id);
                const runtime::TokenLatencies latencies =
                    runtime::token_latencies(tl);
                const Seconds ttft = latencies.ttft.front();
                const Seconds tbt = latencies.tbt.front();
                for (std::size_t member : members) {
                    const workload::TimedRequest &timed =
                        pending_[member];
                    RequestMetrics r;
                    r.id = timed.request.id;
                    r.prompt_tokens = timed.request.prompt_tokens;
                    r.output_tokens = timed.request.output_tokens;
                    r.batch_index = batch_id;
                    r.arrival = timed.arrival;
                    r.queueing_delay = launch_t - timed.arrival;
                    r.ttft = r.queueing_delay + ttft;
                    r.tbt = tbt;
                    r.e2e_latency = tl.end - timed.arrival;
                    r.slo_met = (!config_.enforce_ttft ||
                                 r.ttft <= config_.ttft_target) &&
                                (!config_.enforce_e2e ||
                                 r.e2e_latency <= config_.e2e_target);
                    report.requests.push_back(r);
                }
                last_completion = std::max(last_completion, tl.end);
                for (const runtime::LayerStepRecord &rec : tl.records)
                    out.records.push_back(rec);
                GpuState &done = gpus[g];
                done.busy = false;
                done.inflight = 0;
                try_launch(g);
            });
    };

    try_launch = [&](std::uint64_t g) {
        GpuState &st = gpus[g];
        if (st.busy || st.queue.empty() || !error.is_ok())
            return;
        const Seconds now = fabric.sim().now();
        if (st.queue.size() >= slots) {
            launch(g);
            return;
        }
        // FCFS deadline: the head may wait max_queue_delay past the
        // moment the GPU could start it (Server's launch rule, without
        // the global full_at lookahead — future routing is unknown).
        const Seconds deadline = pending_[st.queue.front()].arrival +
                                 config_.max_queue_delay;
        if (deadline <= now) {
            launch(g);
            return;
        }
        const std::uint64_t gen = st.gen;
        fabric.sim().schedule(deadline - now, [&, g, gen] {
            GpuState &st2 = gpus[g];
            if (st2.gen == gen && !st2.busy && !st2.queue.empty() &&
                error.is_ok())
                launch(g);
        });
    };

    for (std::size_t i = 0; i < pending_.size(); ++i) {
        fabric.sim().schedule(pending_[i].arrival, [&, i] {
            if (!error.is_ok())
                return;
            std::vector<std::uint64_t> depths(N);
            for (std::uint64_t g = 0; g < N; ++g)
                depths[g] = gpus[g].queue.size() + gpus[g].inflight;
            const std::uint64_t g = router.route(depths);
            GpuState &st = gpus[g];
            if (st.queue.size() >= cap) {
                report.rejected_ids.push_back(pending_[i].request.id);
                return;
            }
            st.queue.push_back(i);
            report.max_queue_depth = std::max<std::uint64_t>(
                report.max_queue_depth, st.queue.size());
            try_launch(g);
        });
    }

    HELM_RETURN_IF_ERROR(fabric.run());
    HELM_RETURN_IF_ERROR(error);
    for (const runtime::Executor &job : jobs)
        HELM_RETURN_IF_ERROR(job.status());
    pending_.clear();

    finalize_serving_report(report, last_completion);
    out.gpus = gpu_stats(fabric, report.makespan);
    for (std::uint64_t g = 0; g < N; ++g) {
        out.gpus[g].batches = gpus[g].batches;
        out.gpus[g].requests = requests_per_gpu[g];
    }
    out.ports = port_stats(fabric, report.makespan);
    if (telemetry_) {
        // Records carry absolute sim times here; run() closes the
        // attribution to N x makespan with idle.
        attribution_ = runtime::attribute_records(
            out.records, spec_.serving.gpu.layer_overhead);
    }
    return out;
}

Result<ClusterReport>
ClusterServer::run_sharded(bool keep_records)
{
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const workload::TimedRequest &a,
                        const workload::TimedRequest &b) {
                         return a.arrival < b.arrival;
                     });

    ClusterReport out;
    runtime::ServingReport &report = out.serving;
    report.submitted = pending_.size();
    const std::uint64_t N = spec_.gpus;
    if (pending_.empty()) {
        for (std::uint64_t g = 0; g < N; ++g) {
            GpuUtilization u;
            u.gpu = g;
            out.gpus.push_back(u);
        }
        return out;
    }

    auto plan_or = shard_plan(spec_);
    if (!plan_or.is_ok())
        return plan_or.status();
    const std::vector<runtime::ShardOptions> &plan = *plan_or;
    const std::uint64_t micro = spec_.micro_batches > 0
                                    ? spec_.micro_batches
                                    : N;

    /** One sharded batch execution (memoized by padded shape). */
    struct BatchRun
    {
        Seconds ttft = 0.0;
        Seconds tbt = 0.0;
        Seconds total_time = 0.0;
        std::vector<GpuUtilization> gpus;
        std::vector<PortStats> ports;
        std::vector<runtime::LayerStepRecord> records;
        telemetry::TimeAttribution attribution;
    };
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
             BatchRun>
        memo;

    auto run_batch = [&](const workload::Batch &batch,
                         bool want_records) -> Result<BatchRun> {
        const auto key = std::make_tuple(batch.size(),
                                         batch.max_prompt_tokens(),
                                         batch.max_output_tokens());
        const auto cached = memo.find(key);
        if (cached != memo.end())
            return cached->second;

        ServingSpec spec = spec_.serving;
        spec.batch = batch.size();
        spec.shape = batch.shape();
        spec.repeats = 1;
        spec.keep_records = false;

        auto shards_or = compile_shards(spec, plan);
        if (!shards_or.is_ok())
            return shards_or.status();
        const std::vector<CompiledSchedule> &shards = *shards_or;
        const Bytes resident =
            cluster_resident_bytes(shards, spec_.parallelism);
        runtime::Fabric fabric(
            N, spec.gpu,
            compute_port_rates(shards.front(), spec_.sockets, resident));
        auto tl_or = run_shards(fabric, shards, spec_.parallelism, micro,
                                spec, want_records || telemetry_);
        if (!tl_or.is_ok())
            return tl_or.status();
        BatchRun run;
        const runtime::TokenLatencies latencies =
            runtime::token_latencies(*tl_or);
        run.ttft = latencies.ttft.front();
        run.tbt = latencies.tbt.front();
        run.total_time = tl_or->end - tl_or->start;
        run.gpus = gpu_stats(fabric, run.total_time);
        run.ports = port_stats(fabric, run.total_time);
        run.records = std::move(tl_or->records);
        if (telemetry_) {
            // Batch-relative times, one shard timeline per GPU: the
            // per-batch wall is total_time on each of the N GPUs.
            run.attribution = runtime::attribute_records(
                run.records, spec_.serving.gpu.layer_overhead,
                run.total_time);
        }
        memo.emplace(key, run);
        return run;
    };

    // ---- Single-queue FCFS loop (runtime::Server::run, with the
    // engine call swapped for the sharded cluster run) -----------------
    const std::uint64_t cap = config_.max_queue_length;
    const std::uint64_t slots = std::min(max_batch_, cap);
    constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

    std::deque<std::size_t> queue;
    std::size_t next_arrival = 0;
    Seconds free_t = 0.0;
    Seconds last_completion = pending_.front().arrival;

    auto admit_until = [&](Seconds t) {
        while (next_arrival < pending_.size() &&
               pending_[next_arrival].arrival <= t) {
            if (queue.size() < cap) {
                queue.push_back(next_arrival);
                report.max_queue_depth = std::max<std::uint64_t>(
                    report.max_queue_depth, queue.size());
            } else {
                report.rejected_ids.push_back(
                    pending_[next_arrival].request.id);
            }
            ++next_arrival;
        }
    };

    const bool kv_bounded =
        kv_block_tokens_ > 0 && kv_capacity_blocks_ != kUnbounded;
    auto padded_blocks = [this](std::uint64_t count,
                                std::uint64_t context) {
        const std::uint64_t blocks =
            (context + kv_block_tokens_ - 1) / kv_block_tokens_;
        return count * blocks * spec_.serving.micro_batches;
    };

    // Cluster-wide accumulators across batch executions (memoized runs
    // count every launch).
    std::vector<GpuUtilization> gpu_totals(N);
    for (std::uint64_t g = 0; g < N; ++g)
        gpu_totals[g].gpu = g;
    std::vector<PortStats> port_totals;
    std::vector<std::uint64_t> requests_per_gpu(N, 0);
    bool recorded = false;

    while (!queue.empty() || next_arrival < pending_.size()) {
        if (queue.empty()) {
            admit_until(pending_[next_arrival].arrival);
            continue;
        }
        const workload::TimedRequest &head = pending_[queue.front()];
        const Seconds ready = std::max(head.arrival, free_t);
        admit_until(ready);

        Seconds launch = ready;
        if (queue.size() < slots) {
            const Seconds deadline = std::max(
                ready, head.arrival + config_.max_queue_delay);
            const std::size_t needed = slots - queue.size();
            const std::size_t filler = next_arrival + needed - 1;
            const Seconds full_at = filler < pending_.size()
                                        ? pending_[filler].arrival
                                        : kNever;
            launch = std::max(ready, std::min(deadline, full_at));
            admit_until(launch);
        }

        workload::Batch batch;
        std::vector<std::size_t> members;
        std::uint64_t max_context = 0;
        while (!queue.empty() && batch.size() < max_batch_) {
            const workload::Request &request =
                pending_[queue.front()].request;
            if (kv_bounded) {
                const std::uint64_t context =
                    request.prompt_tokens + request.output_tokens;
                if (padded_blocks(1, context) > kv_capacity_blocks_) {
                    report.rejected_ids.push_back(request.id);
                    ++report.kv_rejected;
                    queue.pop_front();
                    continue;
                }
                const std::uint64_t grown =
                    std::max(max_context, context);
                if (padded_blocks(batch.size() + 1, grown) >
                    kv_capacity_blocks_)
                    break;
                max_context = grown;
            }
            members.push_back(queue.front());
            batch.requests.push_back(request);
            queue.pop_front();
        }
        if (members.empty())
            continue;

        auto run_or = run_batch(batch, keep_records && !recorded);
        if (!run_or.is_ok())
            return run_or.status();
        const BatchRun &run = *run_or;
        const Seconds done = launch + run.total_time;

        for (std::size_t member : members) {
            const workload::TimedRequest &timed = pending_[member];
            RequestMetrics r;
            r.id = timed.request.id;
            r.prompt_tokens = timed.request.prompt_tokens;
            r.output_tokens = timed.request.output_tokens;
            r.batch_index = report.batches_formed;
            r.arrival = timed.arrival;
            r.queueing_delay = launch - timed.arrival;
            r.ttft = r.queueing_delay + run.ttft;
            r.tbt = run.tbt;
            r.e2e_latency = done - timed.arrival;
            r.slo_met = (!config_.enforce_ttft ||
                         r.ttft <= config_.ttft_target) &&
                        (!config_.enforce_e2e ||
                         r.e2e_latency <= config_.e2e_target);
            report.requests.push_back(r);
        }
        if (telemetry_)
            attribution_.merge(run.attribution);
        for (std::uint64_t g = 0; g < N; ++g) {
            gpu_totals[g].batches += 1;
            gpu_totals[g].compute_busy += run.gpus[g].compute_busy;
            gpu_totals[g].h2d_bytes += run.gpus[g].h2d_bytes;
            gpu_totals[g].d2h_bytes += run.gpus[g].d2h_bytes;
            requests_per_gpu[g] += members.size();
        }
        if (port_totals.empty()) {
            port_totals = run.ports;
            for (PortStats &p : port_totals)
                p.bytes = 0;
        }
        for (std::size_t p = 0; p < port_totals.size(); ++p)
            port_totals[p].bytes += run.ports[p].bytes;
        if (!recorded && !run.records.empty()) {
            out.records = run.records;
            recorded = true;
        }
        ++report.batches_formed;
        free_t = done;
        last_completion = done;
    }
    pending_.clear();

    finalize_serving_report(report, last_completion);
    for (std::uint64_t g = 0; g < N; ++g) {
        gpu_totals[g].requests = requests_per_gpu[g];
        gpu_totals[g].utilization =
            report.makespan > 0.0
                ? gpu_totals[g].compute_busy / report.makespan
                : 0.0;
    }
    out.gpus = std::move(gpu_totals);
    for (PortStats &p : port_totals) {
        const double capacity = p.rate.raw() * report.makespan;
        p.utilization =
            capacity > 0.0 ? static_cast<double>(p.bytes) / capacity
                           : 0.0;
    }
    out.ports = std::move(port_totals);
    return out;
}

} // namespace helm::cluster
