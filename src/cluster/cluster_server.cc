#include "cluster/cluster_server.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "cluster/cluster_engine.h"
#include "cluster/router.h"
#include "runtime/instrument.h"
#include "runtime/schedule.h"

namespace helm::cluster {

using runtime::CompiledSchedule;

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
        server.admission_ = single_or->admission();
        server.single_.emplace(std::move(*single_or));
        return server;
    }

    // The weakest shard bounds admission: tensor shards are uniform,
    // pipeline stages differ (every stage holds the whole batch's KV
    // for its own layers), replicas use the full-model geometry.
    auto plan_or = shard_plan(cs);
    if (!plan_or.is_ok())
        return plan_or.status();
    runtime::AdmissionGeometry &weakest = server.admission_;
    for (std::size_t i = 0; i < plan_or->size(); ++i) {
        auto geo_or = runtime::shard_geometry(cs.serving, (*plan_or)[i]);
        if (!geo_or.is_ok())
            return geo_or.status();
        auto adm_or = runtime::size_admission(
            cs.serving, server.config_, geo_or->kv_model, geo_or->layers);
        if (!adm_or.is_ok())
            return adm_or.status();
        if (i == 0) {
            weakest = *adm_or;
        } else {
            weakest.ceiling = std::min(weakest.ceiling, adm_or->ceiling);
            weakest.kv_capacity_blocks = std::min(
                weakest.kv_capacity_blocks, adm_or->kv_capacity_blocks);
            // Whether the tiers are bounded is a property of the spec,
            // so either every shard reports request slots or none does.
            weakest.kv_request_slots = std::min(weakest.kv_request_slots,
                                                adm_or->kv_request_slots);
        }
        if (cs.parallelism != Parallelism::kPipeline)
            break; // identical geometry on every GPU
    }
    return server;
}

Status
ClusterServer::submit(const workload::TimedRequest &timed)
{
    HELM_RETURN_IF_ERROR(runtime::check_submission(timed));
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
                out.records = single_->serving_records();
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
    runtime::sort_by_arrival(pending_);

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
    auto sizing_or = compile_cluster(spec_, spec_.serving);
    if (!sizing_or.is_ok())
        return sizing_or.status();
    runtime::Fabric fabric(N, spec_.serving.gpu, sizing_or->rates);
    std::deque<runtime::Executor> jobs; //!< alive until the fabric drains

    const std::uint64_t cap = config_.max_queue_length;
    const std::uint64_t slots = std::min(admission_.ceiling, cap);

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
    std::map<runtime::BatchShape, std::shared_ptr<const CompiledSchedule>>
        memo;
    Seconds last_completion = pending_.front().arrival;
    Status error = Status::ok();

    std::function<void(std::uint64_t)> try_launch;
    std::function<void(std::uint64_t)> launch;

    launch = [&](std::uint64_t g) {
        GpuState &st = gpus[g];
        ++st.gen; // whatever timer was armed for the old head is stale
        runtime::FormedBatch formed =
            runtime::form_batch(st.queue, pending_, admission_, report);
        if (formed.members.empty()) {
            try_launch(g); // every candidate was shed; next head
            return;
        }
        std::shared_ptr<const CompiledSchedule> compiled;
        const auto cached = memo.find(formed.shape);
        if (cached != memo.end()) {
            compiled = cached->second;
        } else {
            auto compiled_or = runtime::compile_schedule(runtime::batch_spec(
                spec_.serving, formed.shape, /*keep_records=*/false));
            if (!compiled_or.is_ok()) {
                if (error.is_ok())
                    error = compiled_or.status();
                return;
            }
            compiled = std::make_shared<CompiledSchedule>(
                std::move(*compiled_or));
            memo.emplace(formed.shape, compiled);
        }
        st.busy = true;
        st.inflight = formed.members.size();
        ++st.batches;
        requests_per_gpu[g] += formed.members.size();
        const std::uint64_t batch_id = report.batches_formed++;
        const Seconds launch_t = fabric.sim().now();
        jobs.emplace_back(fabric, std::span(compiled.get(), 1), g);
        jobs.back().start(
            [&, g, members = std::move(formed.members), launch_t,
             batch_id](const runtime::Executor &job) {
                runtime::BatchTimeline tl =
                    job.timeline(keep_records, batch_id);
                const runtime::TokenLatencies latencies =
                    runtime::token_latencies(tl);
                runtime::record_batch(
                    report, pending_, members, batch_id, launch_t, tl.end,
                    {latencies.ttft.front(), latencies.tbt.front(), 0.0},
                    config_);
                last_completion = std::max(last_completion, tl.end);
                out.records.insert(
                    out.records.end(),
                    std::make_move_iterator(tl.records.begin()),
                    std::make_move_iterator(tl.records.end()));
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

    runtime::finalize_serving_report(report, last_completion);
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
    const std::uint64_t N = spec_.gpus;

    /** One sharded batch execution (memoized by padded shape). */
    struct BatchRun
    {
        ClusterBatch batch;
        runtime::TokenLatencies latencies;
        telemetry::TimeAttribution attribution;
    };
    std::map<runtime::BatchShape, BatchRun> memo;

    auto run_batch = [&](const runtime::BatchShape &shape,
                         bool want_records) -> Result<BatchRun *> {
        const auto cached = memo.find(shape);
        if (cached != memo.end())
            return &cached->second;
        auto batch_or = run_cluster_batch(
            spec_,
            runtime::batch_spec(spec_.serving, shape,
                                /*keep_records=*/false),
            want_records || telemetry_);
        if (!batch_or.is_ok())
            return batch_or.status();
        BatchRun run;
        run.batch = std::move(*batch_or);
        run.latencies = runtime::token_latencies(run.batch.timelines.front());
        if (telemetry_) {
            // Batch-relative times, one shard timeline per GPU: the
            // per-batch wall is the makespan on each of the N GPUs.
            run.attribution = runtime::attribute_records(
                run.batch.timelines.front().records,
                spec_.serving.gpu.layer_overhead, run.batch.makespan);
        }
        return &memo.emplace(shape, std::move(run)).first->second;
    };

    // Cluster-wide accumulators across launches (memoized runs count
    // every launch).
    ClusterReport out;
    out.gpus.resize(N);
    for (std::uint64_t g = 0; g < N; ++g)
        out.gpus[g].gpu = g;
    bool recorded = false;
    auto report_or = runtime::run_fcfs(
        pending_, admission_, config_,
        [&](const runtime::BatchShape &batch, Seconds,
            std::uint64_t) -> Result<runtime::BatchCost> {
            auto run_or = run_batch(batch, keep_records && !recorded);
            if (!run_or.is_ok())
                return run_or.status();
            BatchRun &run = **run_or;
            if (telemetry_)
                attribution_.merge(run.attribution);
            for (std::uint64_t g = 0; g < N; ++g) {
                out.gpus[g].batches += 1;
                out.gpus[g].compute_busy += run.batch.gpus[g].compute_busy;
                out.gpus[g].h2d_bytes += run.batch.gpus[g].h2d_bytes;
                out.gpus[g].d2h_bytes += run.batch.gpus[g].d2h_bytes;
                out.gpus[g].requests += batch.count;
            }
            if (out.ports.empty()) {
                out.ports = run.batch.ports;
                for (PortStats &p : out.ports) {
                    p.bytes = 0;
                    p.throttle_events = 0;
                }
            }
            for (std::size_t p = 0; p < out.ports.size(); ++p) {
                out.ports[p].bytes += run.batch.ports[p].bytes;
                out.ports[p].throttle_events +=
                    run.batch.ports[p].throttle_events;
            }
            // The memo never reads a run's records again: move them.
            auto &records = run.batch.timelines.front().records;
            if (!recorded && !records.empty()) {
                out.records = std::move(records);
                recorded = true;
            }
            return runtime::BatchCost{run.latencies.ttft.front(),
                                      run.latencies.tbt.front(),
                                      run.batch.makespan};
        });
    pending_.clear();
    if (!report_or.is_ok())
        return report_or.status();
    out.serving = std::move(*report_or);

    const Seconds makespan = out.serving.makespan;
    for (GpuUtilization &g : out.gpus)
        g.utilization = makespan > 0.0 ? g.compute_busy / makespan : 0.0;
    for (PortStats &p : out.ports) {
        const double capacity = p.rate.raw() * makespan;
        p.utilization =
            capacity > 0.0 ? static_cast<double>(p.bytes) / capacity
                           : 0.0;
    }
    return out;
}

} // namespace helm::cluster
