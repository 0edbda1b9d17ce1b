#include "cluster/cluster_engine.h"

#include <algorithm>
#include <deque>
#include <span>
#include <utility>

#include "common/summary.h"
#include "model/transformer.h"

namespace helm::cluster {

using runtime::CompiledSchedule;
using runtime::KvFlowSpec;
using runtime::LayerStepRecord;
using runtime::ScheduledStep;

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
    for (const ScheduledStep &step : shard.steps) {
        caps.read = max_bw(caps.read, step.cpu_cap);
        caps.disk = max_bw(caps.disk, step.disk_cap);
        for (const KvFlowSpec &flow : shard.kv_reads(step))
            caps.read = max_bw(caps.read, flow.cap);
        for (const KvFlowSpec &flow : shard.kv_writes(step))
            caps.write = max_bw(caps.write, flow.cap);
    }
    return caps;
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
// when token t retires from the last stage.
// ---------------------------------------------------------------------------

namespace {

struct PipeFlow
{
    Bytes bytes = 0;
    Bandwidth cap;
    bool from_storage = false;
};

/** Everything stage s does for one (rep, token). */
struct TokenWork
{
    std::uint64_t rep = 0;
    std::uint64_t tok = 0; //!< token within the rep
    gpu::Stage stage = gpu::Stage::kPrefill;
    model::LayerType type = model::LayerType::kMha;
    int first_layer = 0;
    Seconds compute_total = 0.0;
    std::vector<PipeFlow> weights;
    std::vector<KvFlowSpec> kv_reads;          //!< prefetched with weights
    std::vector<KvFlowSpec> kv_reads_blocking; //!< gate the first chunk
    std::vector<KvFlowSpec> kv_writes;
    Bytes cpu_bytes = 0;
    Bytes disk_bytes = 0;
    Bytes kv_read_bytes = 0;
    Bytes kv_write_bytes = 0;
};

class PipelineExecutor
{
  public:
    PipelineExecutor(runtime::Fabric &fabric,
                     const std::vector<CompiledSchedule> &stages,
                     std::uint64_t micro_batches,
                     const runtime::ServingSpec &base, bool keep_records)
        : fabric_(fabric), stages_(stages), micro_(micro_batches),
          keep_records_(keep_records)
    {
        const std::uint64_t S = stages_.size();
        tokens_per_rep_ = stages_.front().tokens;
        const std::uint64_t per_batch =
            tokens_per_rep_ * stages_.front().num_layers;
        reps_ = per_batch > 0 ? stages_.front().steps.size() / per_batch
                              : 0;
        total_ = reps_ * tokens_per_rep_;

        // Flatten each stage's steps into per-token work units.
        const Seconds overhead = fabric_.gpu_spec().layer_overhead;
        work_.resize(S);
        for (std::uint64_t s = 0; s < S; ++s) {
            const CompiledSchedule &stage = stages_[s];
            const std::uint64_t L = stage.num_layers;
            HELM_ASSERT(stage.tokens == tokens_per_rep_ &&
                            stage.steps.size() == reps_ * tokens_per_rep_ * L,
                        "pipeline stages disagree on schedule shape");
            work_[s].reserve(total_);
            for (std::uint64_t t = 0; t < total_; ++t) {
                TokenWork w;
                w.rep = t / tokens_per_rep_;
                w.tok = t % tokens_per_rep_;
                for (std::uint64_t li = 0; li < L; ++li) {
                    const ScheduledStep &step = stage.steps[t * L + li];
                    if (li == 0) {
                        w.stage = step.stage;
                        w.type = step.type;
                        w.first_layer = step.layer;
                    }
                    w.compute_total += step.compute + overhead;
                    if (step.cpu_bytes > 0) {
                        w.weights.push_back(
                            {step.cpu_bytes, step.cpu_cap, false});
                        w.cpu_bytes += step.cpu_bytes;
                    }
                    if (step.disk_bytes > 0) {
                        w.weights.push_back(
                            {step.disk_bytes, step.disk_cap, true});
                        w.disk_bytes += step.disk_bytes;
                    }
                    auto &reads = step.kv_prefetch ? w.kv_reads
                                                   : w.kv_reads_blocking;
                    for (const KvFlowSpec &flow : stage.kv_reads(step))
                        reads.push_back(flow);
                    for (const KvFlowSpec &flow : stage.kv_writes(step))
                        w.kv_writes.push_back(flow);
                    w.kv_read_bytes += stage.kv_read_bytes(step);
                    w.kv_write_bytes += stage.kv_write_bytes(step);
                }
                work_[s].push_back(std::move(w));
            }
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

        idx_.assign(S, 0);
        mb_started_.assign(S, 0);
        mb_done_.assign(S, 0);
        writes_pending_.assign(S, 0);
        kv_fetch_state_.assign(S, 0);
        arrived_.assign(S, std::vector<std::uint64_t>(total_, 0));
        load_issued_.assign(S, std::vector<char>(total_, 0));
        load_ready_.assign(S, std::vector<char>(total_, 0));
        load_issue_t_.assign(S, std::vector<Seconds>(total_, 0.0));
        load_done_t_.assign(S, std::vector<Seconds>(total_, 0.0));
        first_start_t_.assign(S, std::vector<Seconds>(total_, 0.0));
        token_done_t_.assign(S, std::vector<Seconds>(total_, 0.0));
        last_write_t_.assign(S, -1.0);
        token_end_.assign(total_, 0.0);
    }

    Result<runtime::BatchTimeline>
    run()
    {
        const std::uint64_t S = stages_.size();
        // Pipeline fill: every stage streams its first token's weights
        // un-overlapped; stage 0's first token is ready immediately.
        arrived_[0][0] = micro_;
        for (std::uint64_t s = 0; s < S; ++s)
            issue_load(s, 0);
        HELM_RETURN_IF_ERROR(fabric_.run());
        if (finished_ != total_)
            return Status::internal("pipeline run did not finish");
        return build_timeline();
    }

  private:
    void
    issue_load(std::uint64_t s, std::uint64_t t)
    {
        if (t >= total_ || load_issued_[s][t])
            return;
        load_issued_[s][t] = 1;
        load_issue_t_[s][t] = fabric_.sim().now();
        const TokenWork &w = work_[s][t];
        const std::size_t flows = w.weights.size() + w.kv_reads.size();
        if (flows == 0) {
            load_done_t_[s][t] = fabric_.sim().now();
            load_ready_[s][t] = 1;
            advance(s);
            return;
        }
        auto latch = std::make_shared<sim::CountdownLatch>(flows);
        latch->on_zero([this, s, t] {
            load_done_t_[s][t] = fabric_.sim().now();
            load_ready_[s][t] = 1;
            advance(s);
        });
        for (const PipeFlow &flow : w.weights) {
            if (flow.from_storage) {
                fabric_.storage_to_gpu(s, flow.bytes, flow.cap,
                                       [latch] { latch->arrive(); });
            } else {
                fabric_.host_to_gpu(s, flow.bytes, flow.cap,
                                    [latch] { latch->arrive(); });
            }
        }
        for (const KvFlowSpec &flow : w.kv_reads) {
            fabric_.host_to_gpu(s, flow.bytes, flow.cap,
                                [latch] { latch->arrive(); });
        }
    }

    /** Start every chunk of stage @p s's current token that has both
     *  its activations and its weights; called on every state change. */
    void
    advance(std::uint64_t s)
    {
        const std::uint64_t t = idx_[s];
        if (t >= total_ || !load_ready_[s][t])
            return;
        if (arrived_[s][t] == 0 && mb_started_[s] == 0)
            return;
        const TokenWork &w = work_[s][t];
        // Un-prefetched context reads gate the token's first chunk.
        if (!w.kv_reads_blocking.empty() && kv_fetch_state_[s] < 2) {
            if (kv_fetch_state_[s] == 0) {
                kv_fetch_state_[s] = 1;
                auto reads = std::make_shared<sim::CountdownLatch>(
                    w.kv_reads_blocking.size());
                reads->on_zero([this, s] {
                    kv_fetch_state_[s] = 2;
                    advance(s);
                });
                for (const KvFlowSpec &flow : w.kv_reads_blocking) {
                    fabric_.host_to_gpu(s, flow.bytes, flow.cap,
                                        [reads] { reads->arrive(); });
                }
            }
            return;
        }
        while (mb_started_[s] < micro_ &&
               arrived_[s][t] > mb_started_[s]) {
            const std::uint64_t m = mb_started_[s]++;
            if (m == 0)
                on_token_started(s, t);
            (void)m; // chunks are interchangeable past this point
            fabric_.occupy_gpu(s, w.compute_total / micro_,
                               [this, s, t] { chunk_done(s, t); });
        }
    }

    void
    on_token_started(std::uint64_t s, std::uint64_t t)
    {
        first_start_t_[s][t] = fabric_.sim().now();
        const TokenWork &w = work_[s][t];
        // store_cache: K/V appends drain concurrently with compute and
        // hold the token open until they land.
        writes_pending_[s] = w.kv_writes.size();
        last_write_t_[s] = -1.0;
        for (const KvFlowSpec &flow : w.kv_writes) {
            fabric_.gpu_to_host(s, flow.bytes, flow.cap, [this, s, t] {
                last_write_t_[s] = fabric_.sim().now();
                --writes_pending_[s];
                maybe_complete(s, t);
            });
        }
        // Zig-zag: prefetch the next token's weights behind compute.
        issue_load(s, t + 1);
    }

    void
    chunk_done(std::uint64_t s, std::uint64_t t)
    {
        const std::uint64_t S = stages_.size();
        if (s + 1 < S) {
            const Bytes act = work_[s][t].tok == 0 ? prefill_act_
                                                   : decode_act_;
            const Bandwidth w_cap =
                stages_[s].system.gpu_to_host_bw(act);
            const Bandwidth r_cap =
                stages_[s + 1].system.host_to_gpu_bw(act);
            fabric_.gpu_to_host(s, act, w_cap, [this, s, t, act, r_cap] {
                fabric_.host_to_gpu(s + 1, act, r_cap, [this, s, t] {
                    ++arrived_[s + 1][t];
                    advance(s + 1);
                });
            });
        }
        ++mb_done_[s];
        maybe_complete(s, t);
        advance(s);
    }

    void
    maybe_complete(std::uint64_t s, std::uint64_t t)
    {
        if (idx_[s] != t || mb_done_[s] != micro_ ||
            writes_pending_[s] != 0)
            return;
        token_done_t_[s][t] = fabric_.sim().now();
        idx_[s] = t + 1;
        mb_started_[s] = 0;
        mb_done_[s] = 0;
        kv_fetch_state_[s] = 0;
        if (s + 1 == stages_.size()) {
            token_end_[t] = fabric_.sim().now();
            ++finished_;
            // Autoregressive feedback: the next token enters stage 0.
            if (t + 1 < total_) {
                arrived_[0][t + 1] = micro_;
                advance(0);
            }
        }
        advance(s);
    }

    runtime::BatchTimeline
    build_timeline() const
    {
        runtime::BatchTimeline tl;
        tl.start = 0.0;
        tl.end = fabric_.sim().now();
        tl.reps = reps_;
        tl.tokens = tokens_per_rep_;
        tl.token_end = token_end_;
        if (keep_records_) {
            for (std::uint64_t s = 0; s < stages_.size(); ++s) {
                for (std::uint64_t t = 0; t < total_; ++t) {
                    const TokenWork &w = work_[s][t];
                    LayerStepRecord rec;
                    rec.gpu_index = s;
                    rec.batch_index = w.rep;
                    rec.token = w.tok;
                    rec.layer = w.first_layer;
                    rec.type = w.type;
                    rec.stage = w.stage;
                    rec.compute_time = w.compute_total;
                    rec.transfer_time =
                        load_done_t_[s][t] - load_issue_t_[s][t];
                    rec.transfer_bytes = w.cpu_bytes + w.disk_bytes;
                    rec.kv_read_bytes = w.kv_read_bytes;
                    rec.kv_write_bytes = w.kv_write_bytes;
                    rec.transfer_start = load_issue_t_[s][t];
                    rec.step_start = first_start_t_[s][t];
                    rec.step_end = token_done_t_[s][t];
                    for (const KvFlowSpec &flow : w.kv_reads) {
                        rec.kv_tiers.push_back(runtime::KvTierTraffic{
                            stages_[s].kv_tier_names[flow.tier],
                            flow.bytes, 0});
                    }
                    for (const KvFlowSpec &flow : w.kv_writes) {
                        rec.kv_tiers.push_back(runtime::KvTierTraffic{
                            stages_[s].kv_tier_names[flow.tier], 0,
                            flow.bytes});
                    }
                    tl.records.push_back(std::move(rec));
                }
            }
        }
        return tl;
    }

    runtime::Fabric &fabric_;
    const std::vector<CompiledSchedule> &stages_;
    std::uint64_t micro_;
    bool keep_records_;
    std::uint64_t tokens_per_rep_ = 0;
    std::uint64_t reps_ = 0;
    std::uint64_t total_ = 0; //!< tokens across all reps
    Bytes prefill_act_ = 0;
    Bytes decode_act_ = 0;
    std::vector<std::vector<TokenWork>> work_; //!< [stage][token]
    std::vector<std::uint64_t> idx_;
    std::vector<std::uint64_t> mb_started_;
    std::vector<std::uint64_t> mb_done_;
    std::vector<std::uint64_t> writes_pending_;
    std::vector<int> kv_fetch_state_; //!< 0 idle / 1 inflight / 2 done
    std::vector<std::vector<std::uint64_t>> arrived_;
    std::vector<std::vector<char>> load_issued_;
    std::vector<std::vector<char>> load_ready_;
    std::vector<std::vector<Seconds>> load_issue_t_;
    std::vector<std::vector<Seconds>> load_done_t_;
    std::vector<std::vector<Seconds>> first_start_t_;
    std::vector<std::vector<Seconds>> token_done_t_;
    std::vector<Seconds> last_write_t_;
    std::vector<Seconds> token_end_;
    std::uint64_t finished_ = 0;
};

} // namespace

Result<runtime::BatchTimeline>
run_shards(runtime::Fabric &fabric, const std::vector<CompiledSchedule> &shards,
           Parallelism mode, std::uint64_t micro_batches,
           const runtime::ServingSpec &base, bool keep_records)
{
    if (shards.size() != fabric.gpus())
        return Status::invalid_argument("one shard per GPU required");
    if (mode == Parallelism::kTensor) {
        runtime::Executor lockstep(fabric, shards);
        HELM_RETURN_IF_ERROR(lockstep.run());
        return lockstep.timeline(keep_records);
    }
    if (micro_batches < 1)
        return Status::invalid_argument("micro_batches must be >= 1");
    PipelineExecutor pipeline(fabric, shards, micro_batches, base,
                              keep_records);
    return pipeline.run();
}

// ---------------------------------------------------------------------------
// Saturation runs
// ---------------------------------------------------------------------------

Result<SaturationResult>
run_saturated(const ClusterSpec &spec, bool keep_records)
{
    HELM_RETURN_IF_ERROR(spec.validate());
    const std::uint64_t N = spec.gpus;
    auto plan_or = shard_plan(spec);
    if (!plan_or.is_ok())
        return plan_or.status();
    // Replicas all run the one full-model schedule.
    if (spec.parallelism == Parallelism::kReplica)
        plan_or->resize(1);
    auto shards_or = compile_shards(spec.serving, *plan_or);
    if (!shards_or.is_ok())
        return shards_or.status();
    const std::vector<CompiledSchedule> &shards = *shards_or;
    const CompiledSchedule &head = shards.front();

    runtime::Fabric fabric(
        N, spec.serving.gpu,
        compute_port_rates(
            head, spec.sockets,
            cluster_resident_bytes(shards, spec.parallelism, N)));
    std::vector<runtime::BatchTimeline> timelines;
    if (spec.parallelism == Parallelism::kReplica) {
        const std::uint64_t per_batch = head.tokens * head.num_layers;
        const std::uint64_t reps =
            per_batch > 0 ? head.steps.size() / per_batch : 0;
        std::deque<runtime::Executor> jobs;
        for (std::uint64_t g = 0; g < N; ++g) {
            jobs.emplace_back(fabric, std::span(&head, 1), g);
            jobs.back().start();
        }
        HELM_RETURN_IF_ERROR(fabric.run());
        for (std::uint64_t g = 0; g < N; ++g) {
            HELM_RETURN_IF_ERROR(jobs[g].status());
            timelines.push_back(
                jobs[g].timeline(keep_records, /*batch_tag=*/g * reps));
        }
    } else {
        auto tl_or = run_shards(
            fabric, shards, spec.parallelism,
            spec.micro_batches > 0 ? spec.micro_batches : N, spec.serving,
            keep_records);
        if (!tl_or.is_ok())
            return tl_or.status();
        timelines.push_back(std::move(*tl_or));
    }

    SaturationResult out;
    for (const runtime::BatchTimeline &tl : timelines) {
        out.makespan = std::max(out.makespan, tl.end - tl.start);
        out.total_tokens += tl.reps * head.effective_batch * tl.tokens;
    }
    out.aggregate_throughput =
        out.makespan > 0.0
            ? static_cast<double>(out.total_tokens) / out.makespan
            : 0.0;
    const runtime::TokenLatencies latencies =
        runtime::token_latencies(timelines.front());
    out.ttft = mean_discarding_first(latencies.ttft);
    out.tbt = mean_discarding_first(latencies.tbt);
    out.gpus = gpu_stats(fabric, out.makespan);
    for (GpuUtilization &u : out.gpus)
        u.batches = 1;
    out.ports = port_stats(fabric, out.makespan);
    for (runtime::BatchTimeline &tl : timelines) {
        out.records.insert(out.records.end(),
                           std::make_move_iterator(tl.records.begin()),
                           std::make_move_iterator(tl.records.end()));
    }
    return out;
}

} // namespace helm::cluster
