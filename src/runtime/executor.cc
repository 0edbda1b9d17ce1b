#include "runtime/executor.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "common/summary.h"

namespace helm::runtime {

FabricRates
link_rates(const mem::HostMemorySystem &system)
{
    FabricRates rates;
    rates.h2d = max_bw(system.pcie().h2d_effective(),
                       system.host_to_gpu_bw(kGiB));
    rates.d2h = max_bw(system.pcie().d2h_effective(),
                       system.gpu_to_host_bw(kGiB));
    if (system.has_storage())
        rates.storage_latency = system.storage()->latency();
    return rates;
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Fabric::Gpu::Gpu(sim::Simulator &sim, const FabricRates &rates)
    : h2d(sim, rates.h2d), d2h(sim, rates.d2h), compute(sim)
{
}

Fabric::Fabric(std::uint64_t gpus, const gpu::GpuSpec &gpu,
               const FabricRates &rates)
    : gpu_(gpu), rates_(rates), ndp_(sim_)
{
    HELM_ASSERT(gpus >= 1, "need at least one GPU");
    for (std::uint64_t g = 0; g < gpus; ++g)
        gpus_.emplace_back(sim_, rates);
    auto port = [this](Bandwidth rate) {
        return rate.is_zero()
                   ? nullptr
                   : std::make_unique<sim::BandwidthChannel>(sim_, rate);
    };
    host_read_ = port(rates.host_read);
    host_write_ = port(rates.host_write);
    storage_read_ = port(rates.storage_read);
}

void
Fabric::dual_flow(sim::BandwidthChannel &local, sim::BandwidthChannel *port,
                  Bytes bytes, Bandwidth cap, std::function<void()> on_done)
{
    if (bytes == 0 || port == nullptr) {
        // Single-channel semantics (zero-byte flows complete inline
        // inside start_flow).
        local.start_flow(bytes, cap, std::move(on_done));
        return;
    }
    // Full byte count on both resources; the transfer is done when the
    // slower one delivers its last byte.  When the port has slack this
    // collapses to the local channel's timing exactly.
    auto latch = std::make_shared<sim::CountdownLatch>(2);
    latch->on_zero(std::move(on_done));
    local.start_flow(bytes, cap, [latch] { latch->arrive(); });
    port->start_flow(bytes, cap, [latch] { latch->arrive(); });
}

void
Fabric::host_to_gpu(std::uint64_t g, Bytes bytes, Bandwidth cap,
                    std::function<void()> on_done)
{
    gpus_[g].h2d_bytes += bytes;
    dual_flow(gpus_[g].h2d, host_read_.get(), bytes, cap,
              std::move(on_done));
}

void
Fabric::storage_to_gpu(std::uint64_t g, Bytes bytes, Bandwidth cap,
                       std::function<void()> on_done)
{
    gpus_[g].h2d_bytes += bytes;
    sim_.schedule(rates_.storage_latency,
                  [this, g, bytes, cap,
                   on_done = std::move(on_done)]() mutable {
                      dual_flow(gpus_[g].h2d, storage_read_.get(), bytes,
                                cap, std::move(on_done));
                  });
}

void
Fabric::gpu_to_host(std::uint64_t g, Bytes bytes, Bandwidth cap,
                    std::function<void()> on_done)
{
    gpus_[g].d2h_bytes += bytes;
    dual_flow(gpus_[g].d2h, host_write_.get(), bytes, cap,
              std::move(on_done));
}

void
Fabric::occupy_gpu(std::uint64_t g, Seconds duration,
                   std::function<void()> on_done)
{
    gpus_[g].compute.occupy(duration, std::move(on_done));
}

void
Fabric::occupy_ndp(Seconds duration, std::function<void()> on_done)
{
    ndp_.occupy(duration, std::move(on_done));
}

Status
Fabric::run(std::uint64_t max_events)
{
    std::uint64_t fired = 0;
    while (sim_.step()) {
        if (++fired > max_events) {
            char text[128];
            std::snprintf(text, sizeof(text),
                          "DES runaway: t=%g pending=%zu", sim_.now(),
                          sim_.pending_events());
            return Status::internal(text);
        }
    }
    return Status::ok();
}

Seconds
Fabric::compute_busy(std::uint64_t g) const
{
    return gpus_[g].compute.busy_time();
}

// ---------------------------------------------------------------------------
// Timelines
// ---------------------------------------------------------------------------

TokenLatencies
token_latencies(const BatchTimeline &tl)
{
    TokenLatencies out;
    auto end_of = [&tl](std::uint64_t rep, std::uint64_t tok) {
        return tl.token_end[rep * tl.tokens + tok];
    };
    for (std::uint64_t rep = 0; rep < tl.reps; ++rep) {
        const Seconds batch_start =
            rep == 0 ? tl.start : end_of(rep - 1, tl.tokens - 1);
        out.ttft.push_back(end_of(rep, 0) - batch_start);
        std::vector<double> gaps;
        for (std::uint64_t tok = 1; tok < tl.tokens; ++tok)
            gaps.push_back(end_of(rep, tok) - end_of(rep, tok - 1));
        out.tbt.push_back(mean(gaps));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

namespace {

/** Flows a step's load_weight issues: weights from either tier plus
 *  prefetched KV reads. */
std::size_t
load_flows(const CompiledSchedule &shard, const ScheduledStep &step)
{
    return (step.cpu_bytes > 0 ? 1 : 0) + (step.disk_bytes > 0 ? 1 : 0) +
           (step.kv_prefetch ? shard.kv_reads(step).size() : 0);
}

} // namespace

Executor::Executor(Fabric &fabric, std::span<const CompiledSchedule> shards,
                   std::uint64_t first_gpu)
    : fabric_(fabric), shards_(shards), first_gpu_(first_gpu)
{
    HELM_ASSERT(!shards_.empty(), "executor needs at least one shard");
    HELM_ASSERT(first_gpu_ + shards_.size() <= fabric_.gpus(),
                "executor shards exceed the fabric's GPUs");
    steps_ = shards_.front().steps.size();
    HELM_ASSERT(steps_ > 0, "no steps to run");
    for (const CompiledSchedule &shard : shards_) {
        HELM_ASSERT(shard.steps.size() == steps_,
                    "lockstep shards must have equal step counts");
    }
    const std::size_t slots = shards_.size() * steps_;
    step_start_.assign(steps_, 0.0);
    step_end_.assign(steps_, 0.0);
    load_issue_.assign(slots, 0.0);
    load_done_.assign(slots, 0.0);
    kv_read_done_.assign(slots, -1.0);
    kv_write_done_.assign(slots, -1.0);
    flows_left_.assign(shards_.size(), 0);
    reads_left_.assign(shards_.size(), 0);
}

void
Executor::start(std::function<void(const Executor &)> on_done)
{
    on_done_ = std::move(on_done);
    start_time_ = fabric_.sim().now();
    // Pipeline fill: the first layer's weights load un-overlapped.
    issue_load(0);
}

Status
Executor::run()
{
    start();
    HELM_RETURN_IF_ERROR(fabric_.run());
    return status();
}

Status
Executor::status() const
{
    if (completed_ == steps_)
        return Status::ok();
    return Status::internal("schedule did not retire all steps: " +
                            std::to_string(completed_) + "/" +
                            std::to_string(steps_) + " completed");
}

bool
Executor::run_closed_form()
{
    const CompiledSchedule &shard = shards_.front();
    if (shards_.size() != 1 || fabric_.gpus() != 1 ||
        fabric_.host_read_port() != nullptr ||
        fabric_.host_write_port() != nullptr ||
        fabric_.storage_read_port() != nullptr ||
        fabric_.sim().pending_events() != 0)
        return false;
    std::uint64_t loads = 0;
    for (const ScheduledStep &s : shard.steps) {
        if (s.disk_bytes > 0 || !shard.kv_reads(s).empty() ||
            !shard.kv_writes(s).empty())
            return false;
        loads += s.cpu_bytes > 0 ? 1 : 0;
    }
    // The DES fires a completion and its zero-delay callback per load
    // and one event per compute; past its cap it reports a runaway.
    if (2 * loads + steps_ > Fabric::kMaxEvents)
        return false;
    const double link = fabric_.h2d_rate().raw();
    const Seconds overhead = fabric_.gpu_spec().layer_overhead;
    // load_weight(k) issued at `at`, as the h2d channel times a lone
    // flow: water_fill grants it min(cap, link), its completion event
    // fires after bytes / rate, and the zero-delay callback lands at
    // the same time.  False when round-off leaves more than
    // kByteEpsilon undelivered: the DES re-arms the completion for the
    // remainder (and delivers the flow when that cannot advance the
    // clock), which this form does not model — the DES's call.
    auto load = [&](std::size_t k, Seconds at) {
        const ScheduledStep &s = shard.steps[k];
        load_issue_[k] = at;
        if (s.cpu_bytes > 0) {
            const double cap = s.cpu_cap.raw();
            const double rate = cap > 0.0 ? std::min(cap, link) : link;
            const double bytes = static_cast<double>(s.cpu_bytes);
            const Seconds issued = at;
            at = at + bytes / rate;
            if (bytes - rate * (at - issued) >
                sim::BandwidthChannel::kByteEpsilon)
                return false;
        }
        load_done_[k] = at;
        return true;
    };
    auto decline = [this] {
        std::fill(load_issue_.begin(), load_issue_.end(), 0.0);
        std::fill(load_done_.begin(), load_done_.end(), 0.0);
        std::fill(step_start_.begin(), step_start_.end(), 0.0);
        std::fill(step_end_.begin(), step_end_.end(), 0.0);
        return false;
    };
    if (!load(0, fabric_.sim().now()))
        return decline();
    // Step k starts when step k-1 retires (step 0 when its weights
    // land), prefetches k+1, and retires at the later of its compute
    // and that prefetch.  NDP steps skip the GPU launch overhead.
    for (std::size_t k = 0; k < steps_; ++k) {
        const ScheduledStep &s = shard.steps[k];
        const Seconds start = k == 0 ? load_done_[0] : step_end_[k - 1];
        step_start_[k] = start;
        Seconds end = start + (s.site == placement::ComputeSite::kNdp
                                   ? s.compute
                                   : s.compute + overhead);
        if (k + 1 < steps_) {
            if (!load(k + 1, start))
                return decline();
            end = std::max(end, load_done_[k + 1]);
        }
        step_end_[k] = end;
    }
    start_time_ = fabric_.sim().now();
    completed_ = steps_;
    return true;
}

/** load_weight(k) on every shard; done when the slowest has its slice. */
void
Executor::issue_load(std::size_t k)
{
    const Seconds now = fabric_.sim().now();
    load_step_ = k;
    loading_ = 0;
    // Count every flow before issuing any: zero-byte flows land inline.
    for (std::size_t g = 0; g < shards_.size(); ++g) {
        load_issue_[g * steps_ + k] = now;
        flows_left_[g] = load_flows(shards_[g], step(g, k));
        if (flows_left_[g] > 0)
            ++loading_;
        else
            load_done_[g * steps_ + k] = now;
    }
    if (loading_ == 0) {
        loaded();
        return;
    }
    for (std::size_t g = 0; g < shards_.size(); ++g) {
        // Re-read the step, not flows_left_: the last shard's load can
        // land inline and start the next load before this loop ends.
        const ScheduledStep &s = step(g, k);
        if (load_flows(shards_[g], s) == 0)
            continue;
        const std::uint64_t gpu = first_gpu_ + g;
        auto landed = [this, g] { flow_loaded(g); };
        if (s.cpu_bytes > 0)
            fabric_.host_to_gpu(gpu, s.cpu_bytes, s.cpu_cap, landed);
        if (s.kv_prefetch) {
            // Host-resident context streams in alongside the weights,
            // contending for the same h2d channel.
            for (const KvFlowSpec &flow : shards_[g].kv_reads(s))
                fabric_.host_to_gpu(gpu, flow.bytes, flow.cap, landed);
        }
        if (s.disk_bytes > 0)
            fabric_.storage_to_gpu(gpu, s.disk_bytes, s.disk_cap, landed);
    }
}

void
Executor::flow_loaded(std::size_t g)
{
    if (--flows_left_[g] > 0)
        return;
    load_done_[g * steps_ + load_step_] = fabric_.sim().now();
    if (--loading_ == 0)
        loaded();
}

void
Executor::loaded()
{
    if (load_step_ == 0)
        start_step(0);
    else
        join(); // the prefetch is one of step load_step_ - 1's joins
}

/** Listing 1 loop body for step @p k on every shard. */
void
Executor::start_step(std::size_t k)
{
    step_ = k;
    step_start_[k] = fabric_.sim().now();
    const bool has_next = k + 1 < steps_;
    joins_left_ = has_next ? 1 : 0;
    for (std::size_t g = 0; g < shards_.size(); ++g)
        joins_left_ += 1 + shards_[g].kv_writes(step(g, k)).size();
    // load_weight(i, j+1): prefetch the next step's weights.
    if (has_next)
        issue_load(k + 1);
    for (std::size_t g = 0; g < shards_.size(); ++g) {
        // store_cache(i, j): new K/V entries (and demoted blocks) drain
        // to their host tiers concurrently with compute; sync() waits
        // for them too (FlexGen's store path).
        for (const KvFlowSpec &flow : shards_[g].kv_writes(step(g, k))) {
            fabric_.gpu_to_host(first_gpu_ + g, flow.bytes, flow.cap,
                                [this, i = g * steps_ + k] {
                                    kv_write_done_[i] = fabric_.sim().now();
                                    join();
                                });
        }
        compute(g);
    }
    // sync(): joins_left_ reaching zero == everything issued retired.
}

/**
 * compute_layer(i, j) for shard @p g.  NDP steps run on the host's
 * near-data units: no h2d transfer fed them (their cpu_bytes are 0) and
 * no GPU launch overhead applies — step.compute already carries the
 * offload command latency.  Only FFN layers offload, so the KV paths
 * never co-occur with an NDP step.
 */
void
Executor::compute(std::size_t g)
{
    const ScheduledStep &s = step(g, step_);
    const std::span<const KvFlowSpec> reads = shards_[g].kv_reads(s);
    if (s.site == placement::ComputeSite::kNdp) {
        fabric_.occupy_ndp(s.compute, [this] { join(); });
    } else if (!s.kv_prefetch && !reads.empty()) {
        // Un-prefetched context reads gate the compute.
        reads_left_[g] = reads.size();
        for (const KvFlowSpec &flow : reads) {
            fabric_.host_to_gpu(first_gpu_ + g, flow.bytes, flow.cap,
                                [this, g] { read_landed(g); });
        }
    } else {
        fabric_.occupy_gpu(first_gpu_ + g,
                           s.compute + fabric_.gpu_spec().layer_overhead,
                           [this] { join(); });
    }
}

void
Executor::read_landed(std::size_t g)
{
    if (--reads_left_[g] > 0)
        return;
    kv_read_done_[g * steps_ + step_] = fabric_.sim().now();
    fabric_.occupy_gpu(first_gpu_ + g,
                       step(g, step_).compute +
                           fabric_.gpu_spec().layer_overhead,
                       [this] { join(); });
}

void
Executor::join()
{
    if (--joins_left_ > 0)
        return;
    step_end_[step_] = fabric_.sim().now();
    ++completed_;
    if (step_ + 1 < steps_) {
        start_step(step_ + 1);
    } else if (on_done_) {
        // The callback may start the next job on these GPUs.
        auto on_done = std::move(on_done_);
        on_done(*this);
    }
}

void
add_step_traffic(LayerStepRecord &rec, const CompiledSchedule &shard,
                 const ScheduledStep &step)
{
    rec.transfer_bytes += step.cpu_bytes + step.disk_bytes;
    rec.host_bytes += step.cpu_bytes;
    rec.disk_bytes += step.disk_bytes;
    rec.kv_read_bytes += shard.kv_read_bytes(step);
    rec.kv_write_bytes += shard.kv_write_bytes(step);
    auto tier_entry = [&](std::size_t t) -> KvTierTraffic & {
        const std::string &name = shard.kv_tier_names[t];
        for (KvTierTraffic &entry : rec.kv_tiers) {
            if (entry.tier == name)
                return entry;
        }
        rec.kv_tiers.push_back(KvTierTraffic{name, 0, 0});
        return rec.kv_tiers.back();
    };
    for (const KvFlowSpec &flow : shard.kv_reads(step))
        tier_entry(flow.tier).read_bytes += flow.bytes;
    for (const KvFlowSpec &flow : shard.kv_writes(step))
        tier_entry(flow.tier).write_bytes += flow.bytes;
}

LayerStepRecord
Executor::record(std::size_t g, std::size_t k, std::uint64_t batch_tag) const
{
    const CompiledSchedule &shard = shards_[g];
    const ScheduledStep &s = shard.steps[k];
    const std::vector<std::string> &tier_names = shard.kv_tier_names;
    const std::size_t i = g * steps_ + k;
    LayerStepRecord rec;
    rec.gpu_index = first_gpu_ + g;
    rec.batch_index = batch_tag + s.batch_index;
    rec.token = s.token;
    rec.layer = s.layer;
    rec.type = s.type;
    rec.stage = s.stage;
    rec.compute_time = s.compute;
    rec.transfer_time = load_done_[i] - load_issue_[i];
    add_step_traffic(rec, shard, s);
    rec.transfer_start = load_issue_[i];
    rec.step_start = step_start_[k];
    rec.step_end = step_end_[k];
    rec.kv_write_time =
        kv_write_done_[i] >= 0.0 ? kv_write_done_[i] - step_start_[k] : 0.0;
    rec.kv_stall_time =
        kv_read_done_[i] >= 0.0 ? kv_read_done_[i] - step_start_[k] : 0.0;
    const std::span<const Bytes> occupancy = shard.kv_occupancy(s);
    rec.kv_occupancy.reserve(occupancy.size());
    for (std::size_t t = 0; t < occupancy.size(); ++t) {
        rec.kv_occupancy.push_back(
            KvTierOccupancy{tier_names[t], occupancy[t]});
    }
    return rec;
}

BatchTimeline
Executor::timeline(bool keep_records, std::uint64_t batch_tag) const
{
    const CompiledSchedule &head = shards_.front();
    BatchTimeline tl;
    tl.start = start_time_;
    tl.end = step_end_.back();
    tl.tokens = head.tokens;
    const std::uint64_t per_batch = head.tokens * head.num_layers;
    tl.reps = per_batch > 0 ? steps_ / per_batch : 0;
    tl.token_end.reserve(tl.reps * tl.tokens);
    for (std::uint64_t rep = 0; rep < tl.reps; ++rep) {
        for (std::uint64_t tok = 0; tok < tl.tokens; ++tok) {
            tl.token_end.push_back(step_end_[rep * per_batch +
                                             tok * head.num_layers +
                                             (head.num_layers - 1)]);
        }
    }
    if (keep_records) {
        tl.records.reserve(shards_.size() * steps_);
        for (std::size_t g = 0; g < shards_.size(); ++g) {
            for (std::size_t k = 0; k < steps_; ++k)
                tl.records.push_back(record(g, k, batch_tag));
        }
    }
    return tl;
}

} // namespace helm::runtime
