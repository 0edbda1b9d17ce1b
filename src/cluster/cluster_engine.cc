#include "cluster/cluster_engine.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <span>
#include <utility>

#include "common/summary.h"
#include "model/transformer.h"

namespace helm::cluster {

using runtime::CompiledSchedule;
using runtime::KvFlowSpec;
using runtime::KvTraffic;
using runtime::LayerRow;
using runtime::LayerStepRecord;
using runtime::TokenRow;

namespace {

/** Largest per-flow cap the compiled steps will ever present to a
 *  port.  Folding this into the port rate keeps the single-GPU
 *  degenerate case exact even if a bandwidth curve dips at the probe
 *  buffer size: one flow can then always run at its full cap. */
struct CapCeilings
{
    Bandwidth read;  //!< host-tier weight + KV-read caps
    Bandwidth write; //!< KV writeback caps
    Bandwidth disk;  //!< storage-tier weight caps
};

CapCeilings
scan_caps(const CompiledSchedule &shard)
{
    CapCeilings caps{};
    // Every layer loads its weights on the prefill token (near-data
    // layers skip h2d on decode only).
    bool moves_kv = false;
    for (const LayerRow &layer : shard.layer_rows) {
        caps.read = max_bw(caps.read, layer.cpu_cap);
        caps.disk = max_bw(caps.disk, layer.disk_cap);
        moves_kv |= layer.moves_kv;
    }
    if (!moves_kv)
        return caps;
    for (const TokenRow &token : shard.token_rows) {
        for (const KvFlowSpec &flow : token.kv.reads)
            caps.read = max_bw(caps.read, flow.cap);
        for (const KvFlowSpec &flow : token.kv.writes)
            caps.write = max_bw(caps.write, flow.cap);
    }
    return caps;
}

/** Cluster-wide host working set of @p gpus GPUs under @p mode:
 *  replicas all run shards.front() and share its one read-only weight
 *  copy, each with a private KV overflow; tensor/pipeline shards are
 *  disjoint and sum. */
Bytes
cluster_resident_bytes(std::span<const CompiledSchedule> shards,
                       Parallelism mode, std::uint64_t gpus)
{
    HELM_ASSERT(!shards.empty(), "no shards");
    if (mode == Parallelism::kReplica) {
        // One shared read-only weight copy; KV overflow is private.
        const CompiledSchedule &replica = shards.front();
        return replica.host_weight_bytes +
               gpus * (replica.host_resident_bytes -
                       replica.host_weight_bytes);
    }
    Bytes total = 0;
    for (const CompiledSchedule &shard : shards)
        total += shard.host_resident_bytes;
    return total;
}

} // namespace

runtime::FabricRates
compute_port_rates(const CompiledSchedule &shard, std::uint64_t sockets,
                   Bytes cluster_resident_bytes)
{
    const mem::HostMemorySystem &sys = shard.system;
    runtime::FabricRates rates = runtime::link_rates(sys);

    // The shared ports run at the host device's streaming rate for the
    // cluster-wide working set.  Declaring the cluster resident set is
    // what makes Optane's sustained floor (and MemoryMode's hit ratio)
    // reflect N GPUs sharing one weight copy.  Device state is shared
    // with the compiled schedule, but its step caps are pre-computed
    // snapshots, so the mutation is safe.
    sys.host()->set_resident_bytes(cluster_resident_bytes);
    const Bytes probe = std::max<Bytes>(kGiB, cluster_resident_bytes);
    // CXL expanders are one device behind one link — no socket pooling.
    const double pool =
        sys.host()->kind() == mem::MemoryKind::kCxl
            ? 1.0
            : static_cast<double>(sockets);
    const CapCeilings caps = scan_caps(shard);
    rates.host_read = max_bw(
        sys.host()->read_bandwidth(probe).scaled(pool), caps.read);
    rates.host_write = max_bw(
        sys.host()->write_bandwidth(probe).scaled(pool), caps.write);
    if (sys.has_storage()) {
        rates.storage_read =
            max_bw(sys.storage()->read_bandwidth(probe), caps.disk);
    }
    return rates;
}

Result<std::vector<runtime::ShardOptions>>
shard_plan(const ClusterSpec &spec)
{
    std::vector<runtime::ShardOptions> plan(spec.gpus);
    if (spec.parallelism == Parallelism::kReplica)
        return plan; // kNone: the full model on every GPU
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    if (spec.parallelism == Parallelism::kPipeline) {
        const auto layers = model::build_layers(
            spec.serving.model, spec.serving.compress_weights
                                    ? model::DataType::kInt4Grouped
                                    : model::DataType::kFp16);
        auto ranges_or = partition_layers(layers, spec.gpus);
        if (!ranges_or.is_ok())
            return ranges_or.status();
        ranges = std::move(*ranges_or);
    }
    for (std::uint64_t g = 0; g < spec.gpus; ++g) {
        runtime::ShardOptions &shard = plan[g];
        shard.count = spec.gpus;
        shard.index = g;
        if (spec.parallelism == Parallelism::kTensor) {
            shard.kind = runtime::ShardOptions::Kind::kTensor;
        } else {
            shard.kind = runtime::ShardOptions::Kind::kPipeline;
            shard.layer_begin = ranges[g].first;
            shard.layer_end = ranges[g].second;
        }
    }
    return plan;
}

std::vector<GpuUtilization>
gpu_stats(const runtime::Fabric &fabric, Seconds makespan)
{
    std::vector<GpuUtilization> stats;
    stats.reserve(fabric.gpus());
    for (std::uint64_t g = 0; g < fabric.gpus(); ++g) {
        GpuUtilization u;
        u.gpu = g;
        u.compute_busy = fabric.compute_busy(g);
        u.h2d_bytes = fabric.h2d_bytes(g);
        u.d2h_bytes = fabric.d2h_bytes(g);
        u.utilization = makespan > 0.0 ? u.compute_busy / makespan : 0.0;
        stats.push_back(u);
    }
    return stats;
}

std::vector<PortStats>
port_stats(const runtime::Fabric &fabric, Seconds makespan)
{
    std::vector<PortStats> ports;
    auto add = [&ports, makespan](const char *name,
                                  const sim::BandwidthChannel *chan) {
        if (chan == nullptr)
            return;
        PortStats p;
        p.name = name;
        p.rate = chan->rate();
        p.bytes = chan->bytes_delivered();
        const double capacity = chan->rate().raw() * makespan;
        p.utilization =
            capacity > 0.0 ? static_cast<double>(p.bytes) / capacity : 0.0;
        p.throttle_events = chan->throttle_events();
        ports.push_back(p);
    };
    add("host-read", fabric.host_read_port());
    add("host-write", fabric.host_write_port());
    add("storage-read", fabric.storage_read_port());
    return ports;
}

// ---------------------------------------------------------------------------
// Pipeline executor: stage s owns GPU s and a contiguous layer range.
// Per (rep, token) a stage streams its layer weights once (prefetched
// while the previous token computes), runs micro_batches compute
// chunks, and forwards each chunk's activations to stage s+1 through
// host memory (d2h on the sender's link + shared write port, then h2d
// on the receiver's link + shared read port).  Token t+1 enters stage 0
// when token t retires from the last stage.  A (stage, token)'s work is
// the stage's layer rows with token row t.
// ---------------------------------------------------------------------------

namespace {

class PipelineExecutor
{
  public:
    PipelineExecutor(runtime::Fabric &fabric,
                     const std::vector<CompiledSchedule> &stages,
                     std::uint64_t micro_batches,
                     const runtime::ServingSpec &base, bool keep_records)
        : fabric_(fabric), stages_(stages), micro_(micro_batches),
          keep_records_(keep_records),
          overhead_(fabric.gpu_spec().layer_overhead),
          tokens_per_rep_(stages.front().tokens)
    {
        reps_ = tokens_per_rep_ > 0
                    ? stages_.front().token_rows.size() / tokens_per_rep_
                    : 0;
        total_ = reps_ * tokens_per_rep_;
        for (const CompiledSchedule &stage : stages_) {
            HELM_ASSERT(stage.tokens == tokens_per_rep_ &&
                            stage.token_rows.size() == total_,
                        "pipeline stages disagree on schedule shape");
        }

        // Micro-batch activation handoffs: ceil(batch / M) requests per
        // chunk, prompt-length hidden states during prefill, one
        // token's worth during decode (fp16).
        const std::uint64_t batch_eff =
            base.batch * base.micro_batches;
        const std::uint64_t mb = (batch_eff + micro_ - 1) / micro_;
        const Bytes hidden = base.model.hidden;
        prefill_act_ = 2 * mb * base.shape.prompt_tokens * hidden;
        decode_act_ = 2 * mb * hidden;

        stage_.resize(stages_.size());
        tokens_.assign(stages_.size(), std::vector<TokenState>(total_));
    }

    Result<runtime::BatchTimeline>
    run()
    {
        // Pipeline fill: every stage streams its first token's weights
        // un-overlapped; stage 0's first token is ready immediately.
        if (total_ > 0)
            tokens_[0][0].arrived = micro_;
        for (std::uint64_t s = 0; s < stages_.size(); ++s)
            issue_load(s, 0);
        HELM_RETURN_IF_ERROR(fabric_.run());
        if (stage_.back().token != total_)
            return Status::internal("pipeline run did not finish");

        runtime::BatchTimeline tl;
        tl.start = 0.0;
        tl.end = fabric_.sim().now();
        tl.reps = reps_;
        tl.tokens = tokens_per_rep_;
        for (const TokenState &tok : tokens_.back())
            tl.token_end.push_back(tok.done);
        if (!keep_records_)
            return tl;
        // One record per (stage, token): the token's first layer, its
        // summed compute, and the traffic of all its layer steps.
        for (std::uint64_t s = 0; s < stages_.size(); ++s) {
            const CompiledSchedule &stage = stages_[s];
            const std::uint64_t L = stage.layer_rows.size();
            for (std::uint64_t t = 0; t < total_; ++t) {
                const TokenState &tok = tokens_[s][t];
                LayerStepRecord &rec = tl.records.emplace_back();
                rec.gpu_index = s;
                rec.batch_index = t / tokens_per_rep_;
                rec.token = t % tokens_per_rep_;
                rec.layer = stage.layer_rows.front().layer;
                rec.type = stage.layer_rows.front().type;
                rec.stage = stage.token_rows[t].stage;
                rec.compute_time = tok.compute;
                rec.transfer_time = tok.load_done - tok.load_issue;
                rec.transfer_start = tok.load_issue;
                rec.step_start = tok.start;
                rec.step_end = tok.done;
                rec.kv_write_time = tok.kv_write_done >= 0.0
                                        ? tok.kv_write_done - tok.start
                                        : 0.0;
                rec.kv_stall_time = tok.kv_read_done >= 0.0
                                        ? tok.kv_read_done - tok.start
                                        : 0.0;
                for (std::uint64_t l = 0; l < L; ++l) {
                    runtime::add_step_traffic(rec, stage,
                                              stage.step(t * L + l));
                }
            }
        }
        return tl;
    }

  private:
    /** Stage s's progress through its current token.  A stage has at
     *  most one load in flight: token t+1's is issued when token t
     *  starts, which needs token t's load done. */
    struct StageState
    {
        std::uint64_t token = 0;   //!< current token
        std::uint64_t started = 0; //!< chunks started
        std::uint64_t done = 0;    //!< chunks finished
        std::uint64_t loads = 0;   //!< load flows in flight
        std::uint64_t reads = 0;   //!< blocking KV reads in flight
        std::uint64_t writes = 0;  //!< KV writebacks in flight
        bool reads_issued = false; //!< blocking KV reads issued
    };

    /** One token's activations and event times on one stage. */
    struct TokenState
    {
        std::uint64_t arrived = 0; //!< chunks whose activations landed
        bool loaded = false;       //!< weights + prefetched KV arrived
        Seconds compute = 0.0;     //!< GPU time, summed at token start
        Seconds load_issue = 0.0;
        Seconds load_done = 0.0;
        /** The token's step began: its blocking KV reads were issued,
         *  or, with none in flight, its first chunk began. */
        Seconds start = 0.0;
        Seconds done = 0.0;           //!< retired
        Seconds kv_read_done = -1.0;  //!< blocking reads landed; -1 = none
        Seconds kv_write_done = -1.0; //!< last writeback; -1 = none
    };

    /** Call @p fn on each flow of stage @p s's token @p t's KV list
     *  @p flows (reads or writes), once per KV-moving layer of the
     *  stage, in layer order: every MHA step moves the token's row. */
    template <typename Fn>
    void
    for_each_kv_flow(std::uint64_t s, std::uint64_t t,
                     std::vector<KvFlowSpec> KvTraffic::*flows,
                     Fn &&fn) const
    {
        const CompiledSchedule &stage = stages_[s];
        const std::vector<KvFlowSpec> &list = stage.token_rows[t].kv.*flows;
        for (const LayerRow &layer : stage.layer_rows) {
            if (!layer.moves_kv)
                continue;
            for (const KvFlowSpec &flow : list)
                fn(flow);
        }
    }

    /** Whether stage @p s's token @p t reads context it did not
     *  prefetch: those reads gate its first chunk. */
    bool
    blocks_on_reads(std::uint64_t s, std::uint64_t t) const
    {
        const CompiledSchedule &stage = stages_[s];
        if (stage.kv_prefetch || stage.token_rows[t].kv.reads.empty())
            return false;
        for (const LayerRow &layer : stage.layer_rows) {
            if (layer.moves_kv)
                return true;
        }
        return false;
    }

    // Each fan-out below holds one extra count while it issues, so a
    // zero-byte flow completing inline cannot close it early.

    /** Stream token @p t's weights (layer by layer, host then storage)
     *  and then its prefetched KV reads onto stage @p s's GPU. */
    void
    issue_load(std::uint64_t s, std::uint64_t t)
    {
        if (t >= total_)
            return;
        tokens_[s][t].load_issue = fabric_.sim().now();
        const CompiledSchedule &stage = stages_[s];
        const TokenRow &token = stage.token_rows[t];
        StageState &st = stage_[s];
        auto arrive = [this, s, t] { load_arrived(s, t); };
        st.loads = 1;
        for (const LayerRow &layer : stage.layer_rows) {
            const Bytes cpu = CompiledSchedule::h2d_bytes(layer, token);
            if (cpu > 0) {
                ++st.loads;
                fabric_.host_to_gpu(s, cpu, layer.cpu_cap, arrive);
            }
            if (layer.disk_bytes > 0) {
                ++st.loads;
                fabric_.storage_to_gpu(s, layer.disk_bytes, layer.disk_cap,
                                       arrive);
            }
        }
        if (stage.kv_prefetch) {
            auto prefetch = [&](const KvFlowSpec &flow) {
                ++st.loads;
                fabric_.host_to_gpu(s, flow.bytes, flow.cap, arrive);
            };
            for_each_kv_flow(s, t, &KvTraffic::reads, prefetch);
        }
        load_arrived(s, t);
    }

    void
    load_arrived(std::uint64_t s, std::uint64_t t)
    {
        if (--stage_[s].loads > 0)
            return;
        tokens_[s][t].load_done = fabric_.sim().now();
        tokens_[s][t].loaded = true;
        advance(s);
    }

    /** Start every chunk of stage @p s's current token that has both
     *  its activations and its weights; called on every state change. */
    void
    advance(std::uint64_t s)
    {
        StageState &st = stage_[s];
        const std::uint64_t t = st.token;
        if (t >= total_ || !tokens_[s][t].loaded)
            return;
        if (tokens_[s][t].arrived == 0 && st.started == 0)
            return;
        // Un-prefetched context reads gate the token's first chunk.
        if (!st.reads_issued) {
            st.reads_issued = true;
            const CompiledSchedule &stage = stages_[s];
            tokens_[s][t].start = fabric_.sim().now();
            // Zig-zag: the next token's weights stream in behind the
            // reads, as Executor::start_step prefetches at step start.
            if (blocks_on_reads(s, t))
                issue_load(s, t + 1);
            st.reads = 1;
            if (!stage.kv_prefetch) {
                auto read = [&](const KvFlowSpec &flow) {
                    ++st.reads;
                    fabric_.host_to_gpu(s, flow.bytes, flow.cap, [this, s, t] {
                        if (--stage_[s].reads > 0)
                            return;
                        tokens_[s][t].kv_read_done = fabric_.sim().now();
                        advance(s);
                    });
                };
                for_each_kv_flow(s, t, &KvTraffic::reads, read);
            }
            --st.reads;
        }
        if (st.reads > 0)
            return;
        while (st.started < micro_ && tokens_[s][t].arrived > st.started) {
            if (st.started++ == 0)
                on_token_started(s, t);
            fabric_.occupy_gpu(s, tokens_[s][t].compute / micro_,
                               [this, s, t] { chunk_done(s, t); });
        }
    }

    void
    on_token_started(std::uint64_t s, std::uint64_t t)
    {
        TokenState &tok = tokens_[s][t];
        const CompiledSchedule &stage = stages_[s];
        const TokenRow &token = stage.token_rows[t];
        // Every layer's compute and launch overhead, in layer order.
        for (const LayerRow &layer : stage.layer_rows)
            tok.compute += stage.compute(layer, token) + overhead_;
        StageState &st = stage_[s];
        // store_cache: K/V appends drain concurrently with compute and
        // hold the token open until they land.
        st.writes = 1;
        auto write = [&](const KvFlowSpec &flow) {
            ++st.writes;
            fabric_.gpu_to_host(s, flow.bytes, flow.cap, [this, s, t] {
                --stage_[s].writes;
                tokens_[s][t].kv_write_done = fabric_.sim().now();
                maybe_complete(s, t);
            });
        };
        for_each_kv_flow(s, t, &KvTraffic::writes, write);
        --st.writes;
        // Zig-zag: prefetch the next token's weights behind compute,
        // unless the step start already did (blocking reads).
        if (!blocks_on_reads(s, t))
            issue_load(s, t + 1);
    }

    void
    chunk_done(std::uint64_t s, std::uint64_t t)
    {
        if (s + 1 < stages_.size()) {
            const Bytes act =
                t % tokens_per_rep_ == 0 ? prefill_act_ : decode_act_;
            const Bandwidth w_cap =
                stages_[s].system.gpu_to_host_bw(act);
            const Bandwidth r_cap =
                stages_[s + 1].system.host_to_gpu_bw(act);
            fabric_.gpu_to_host(s, act, w_cap, [this, s, t, act, r_cap] {
                fabric_.host_to_gpu(s + 1, act, r_cap, [this, s, t] {
                    ++tokens_[s + 1][t].arrived;
                    advance(s + 1);
                });
            });
        }
        ++stage_[s].done;
        maybe_complete(s, t);
        advance(s);
    }

    void
    maybe_complete(std::uint64_t s, std::uint64_t t)
    {
        StageState &st = stage_[s];
        if (st.token != t || st.done != micro_ || st.writes != 0)
            return;
        tokens_[s][t].done = fabric_.sim().now();
        st.token = t + 1;
        st.started = 0;
        st.done = 0;
        st.reads_issued = false;
        // Autoregressive feedback: the next token enters stage 0.
        if (s + 1 == stages_.size() && t + 1 < total_) {
            tokens_[0][t + 1].arrived = micro_;
            advance(0);
        }
        advance(s);
    }

    runtime::Fabric &fabric_;
    const std::vector<CompiledSchedule> &stages_;
    std::uint64_t micro_;
    bool keep_records_;
    Seconds overhead_; //!< per-layer launch overhead
    std::uint64_t tokens_per_rep_;
    std::uint64_t reps_ = 0;
    std::uint64_t total_ = 0; //!< tokens across all reps
    Bytes prefill_act_ = 0;
    Bytes decode_act_ = 0;
    std::vector<StageState> stage_;
    std::vector<std::vector<TokenState>> tokens_; //!< [stage][token]
};

/** Compile @p serving once per entry of @p plan. */
Result<std::vector<CompiledSchedule>>
compile_shards(const runtime::ServingSpec &serving,
               const std::vector<runtime::ShardOptions> &plan)
{
    std::vector<CompiledSchedule> shards;
    shards.reserve(plan.size());
    for (const runtime::ShardOptions &shard : plan) {
        auto compiled_or = runtime::compile_schedule(serving, shard);
        if (!compiled_or.is_ok())
            return compiled_or.status();
        shards.push_back(std::move(*compiled_or));
    }
    return shards;
}

/** Run one tensor or pipeline batch to completion on @p fabric, one
 *  shard per GPU, into @p out's timelines.  Tensor lockstep takes the
 *  executor's closed form when it can (out.closed_form) and the DES
 *  otherwise. */
Status
run_shards(runtime::Fabric &fabric, const std::vector<CompiledSchedule> &shards,
           Parallelism mode, std::uint64_t micro_batches,
           const runtime::ServingSpec &base, bool keep_records,
           ClusterBatch &out)
{
    if (mode == Parallelism::kTensor) {
        const std::uint64_t steps =
            shards.size() * shards.front().step_count();
        std::optional<runtime::Executor> lockstep;
        HELM_RETURN_IF_ERROR(
            runtime::allocate_per_step(steps, "step timings", [&] {
                lockstep.emplace(fabric, shards);
            }));
        out.closed_form = lockstep->run_closed_form();
        if (!out.closed_form)
            HELM_RETURN_IF_ERROR(lockstep->run());
        return runtime::allocate_per_step(steps, "step records", [&] {
            out.timelines.push_back(lockstep->timeline(keep_records));
        });
    }
    PipelineExecutor pipeline(fabric, shards, micro_batches, base,
                              keep_records);
    auto tl_or = pipeline.run();
    if (!tl_or.is_ok())
        return tl_or.status();
    out.timelines.push_back(std::move(*tl_or));
    return Status::ok();
}

} // namespace

Result<CompiledCluster>
compile_cluster(const ClusterSpec &spec, const runtime::ServingSpec &serving)
{
    auto plan_or = shard_plan(spec);
    if (!plan_or.is_ok())
        return plan_or.status();
    // Replicas all run the one full-model schedule.
    if (spec.parallelism == Parallelism::kReplica)
        plan_or->resize(1);
    auto shards_or = compile_shards(serving, *plan_or);
    if (!shards_or.is_ok())
        return shards_or.status();
    CompiledCluster out;
    out.shards = std::move(*shards_or);
    out.rates = compute_port_rates(
        out.shards.front(), spec.sockets,
        cluster_resident_bytes(out.shards, spec.parallelism, spec.gpus));
    return out;
}

Result<ClusterBatch>
run_cluster_batch(const ClusterSpec &spec,
                  const runtime::ServingSpec &serving, bool keep_records)
{
    auto cluster_or = compile_cluster(spec, serving);
    if (!cluster_or.is_ok())
        return cluster_or.status();
    const std::vector<CompiledSchedule> &shards = cluster_or->shards;
    const CompiledSchedule &head = shards.front();
    const std::uint64_t N = spec.gpus;

    runtime::Fabric fabric(N, serving.gpu, cluster_or->rates);
    ClusterBatch out;
    if (spec.parallelism == Parallelism::kReplica) {
        const std::uint64_t reps =
            head.tokens > 0 ? head.token_rows.size() / head.tokens : 0;
        const std::uint64_t steps = N * head.step_count();
        std::deque<runtime::Executor> jobs;
        HELM_RETURN_IF_ERROR(
            runtime::allocate_per_step(steps, "step timings", [&] {
                for (std::uint64_t g = 0; g < N; ++g)
                    jobs.emplace_back(fabric, std::span(&head, 1), g);
            }));
        for (runtime::Executor &job : jobs)
            job.start();
        HELM_RETURN_IF_ERROR(fabric.run());
        for (std::uint64_t g = 0; g < N; ++g) {
            HELM_RETURN_IF_ERROR(jobs[g].status());
            HELM_RETURN_IF_ERROR(
                runtime::allocate_per_step(steps, "step records", [&] {
                    out.timelines.push_back(jobs[g].timeline(
                        keep_records, /*batch_tag=*/g * reps));
                }));
        }
    } else {
        HELM_RETURN_IF_ERROR(run_shards(
            fabric, shards, spec.parallelism,
            spec.micro_batches > 0 ? spec.micro_batches : N, serving,
            keep_records, out));
    }

    for (const runtime::BatchTimeline &tl : out.timelines) {
        out.makespan = std::max(out.makespan, tl.end - tl.start);
        out.total_tokens += tl.reps * head.effective_batch * tl.tokens;
    }
    out.gpus = gpu_stats(fabric, out.makespan);
    out.ports = port_stats(fabric, out.makespan);
    out.fill_passes = fabric.fill_passes();
    return out;
}

// ---------------------------------------------------------------------------
// Saturation runs
// ---------------------------------------------------------------------------

Result<SaturationResult>
run_saturated(const ClusterSpec &spec, bool keep_records)
{
    HELM_RETURN_IF_ERROR(spec.validate());
    auto batch_or = run_cluster_batch(spec, spec.serving, keep_records);
    if (!batch_or.is_ok())
        return batch_or.status();
    ClusterBatch &batch = *batch_or;

    SaturationResult out;
    out.makespan = batch.makespan;
    out.total_tokens = batch.total_tokens;
    out.aggregate_throughput =
        out.makespan > 0.0
            ? static_cast<double>(out.total_tokens) / out.makespan
            : 0.0;
    const runtime::TokenLatencies latencies =
        runtime::token_latencies(batch.timelines.front());
    out.ttft = mean_discarding_first(latencies.ttft);
    out.tbt = mean_discarding_first(latencies.tbt);
    out.gpus = std::move(batch.gpus);
    for (GpuUtilization &u : out.gpus)
        u.batches = 1;
    out.ports = std::move(batch.ports);
    for (runtime::BatchTimeline &tl : batch.timelines) {
        out.records.insert(out.records.end(),
                           std::make_move_iterator(tl.records.begin()),
                           std::make_move_iterator(tl.records.end()));
    }
    return out;
}

} // namespace helm::cluster
