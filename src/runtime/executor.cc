#include "runtime/executor.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <optional>
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

std::uint64_t
Fabric::fill_passes() const
{
    std::uint64_t passes = 0;
    for (const Gpu &gpu : gpus_)
        passes += gpu.h2d.fill_passes() + gpu.d2h.fill_passes();
    for (const auto *port : {host_read_.get(), host_write_.get(),
                             storage_read_.get()}) {
        if (port != nullptr)
            passes += port->fill_passes();
    }
    return passes;
}

Seconds
Fabric::compute_busy(std::uint64_t g) const
{
    return gpus_[g].compute.busy_time();
}

void
Fabric::book_gpu(std::uint64_t g, Seconds compute_busy, Bytes h2d_bytes)
{
    gpus_[g].compute.book(compute_busy);
    gpus_[g].h2d_bytes += h2d_bytes;
}

void
Fabric::book_host_read(const sim::FlowTable &solved)
{
    HELM_ASSERT(host_read_ != nullptr, "no host read port to book");
    host_read_->book(solved);
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

Executor::Executor(Fabric &fabric, std::span<const CompiledSchedule> shards,
                   std::uint64_t first_gpu)
    : fabric_(fabric), shards_(shards), first_gpu_(first_gpu)
{
    HELM_ASSERT(!shards_.empty(), "executor needs at least one shard");
    HELM_ASSERT(first_gpu_ + shards_.size() <= fabric_.gpus(),
                "executor shards exceed the fabric's GPUs");
    steps_ = shards_.front().step_count();
    HELM_ASSERT(steps_ > 0, "no steps to run");
    bool moves_kv = false;
    for (const CompiledSchedule &shard : shards_) {
        HELM_ASSERT(shard.step_count() == steps_,
                    "lockstep shards must have equal step counts");
        moves_kv |= shard.moves_kv();
    }
    const std::size_t slots = shards_.size() * steps_;
    timings_.assign(2 * steps_ + 2 * slots, 0.0);
    const std::span<Seconds> timings(timings_);
    step_start_ = timings.subspan(0, steps_);
    step_end_ = timings.subspan(steps_, steps_);
    load_issue_ = timings.subspan(2 * steps_, slots);
    load_done_ = timings.subspan(2 * steps_ + slots, slots);
    if (moves_kv) {
        kv_read_done_.assign(slots, -1.0);
        kv_write_done_.assign(slots, -1.0);
    }
    flows_left_.assign(shards_.size(), 0);
    reads_left_.assign(shards_.size(), 0);
    loading_steps_.resize(shards_.size());
    current_steps_.resize(shards_.size());
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

namespace {

/**
 * When a lone flow of @p bytes under @p cap, issued at @p at on a link of
 * @p link bytes/s, lands — as a BandwidthChannel times it: the fill
 * grants it min(cap, link) and arms its completion after remaining /
 * rate.  When the completion fires, the flow is delivered if the clock
 * did not advance; otherwise it loses rate x elapsed bytes (clamped at
 * 0), and a remainder above kByteEpsilon re-arms the completion.  The
 * zero-delay callback lands at the same time.  Adds the events the DES
 * fires to @p events.
 */
Seconds
link_arrival(Bytes bytes, Bandwidth cap, double link, Seconds at,
             std::uint64_t &events)
{
    const double rate = cap.raw() > 0.0 ? std::min(cap.raw(), link) : link;
    double remaining = static_cast<double>(bytes);
    events += 2;
    Seconds armed = at;
    at = armed + remaining / rate;
    while (at != armed) {
        remaining -= rate * (at - armed);
        if (remaining < 0.0)
            remaining = 0.0;
        if (remaining <= sim::FlowTable::kByteEpsilon)
            break;
        ++events;
        armed = at;
        at = armed + remaining / rate;
    }
    return at;
}

/**
 * The per-GPU sums of a closed-form run on one GPU alone on its link:
 * compute busy time (as the GPU's FifoResource integrates it) and h2d
 * bytes.  Trivially destructible, so the solve loop's one call (an NDP
 * step's compute) has no exception cleanup around it, which would make
 * the compiler keep the loop's values in memory.
 */
struct LoneGpu
{
    std::array<Seconds, 1> busy{};
    std::array<Bytes, 1> h2d{};
};

/**
 * The same sums for G lockstep shards, plus the shared host read port
 * (when the fabric has one) as a FlowTable the port channel's sequence
 * drives.
 */
struct LockstepGpus
{
    LockstepGpus(std::size_t gpus, const sim::BandwidthChannel *read_port)
        : busy(gpus, 0.0), h2d(gpus, 0)
    {
        if (read_port != nullptr)
            port.emplace(read_port->rate());
    }

    /** Shard @p g's slice joins the port at this step's issue. */
    void
    start_port_flow(std::size_t g, Bytes bytes, Bandwidth cap)
    {
        if (!port)
            return;
        const sim::FlowId id = port->insert(bytes, cap).id;
        if (shards.empty())
            first = id;
        shards.push_back(g);
    }

    /**
     * Time the slices issued at @p at on the port as the port channel
     * does: the kernel's settle fills once at the issue; each completion
     * advances every flow by the time since it was armed, delivers the
     * armed flow if the clock did not move, reaps the finished flows and
     * refills and re-arms while flows remain.  A reaped slice lands at
     * the later of its link arrival (in @p load_done, indexed shard x
     * @p steps + @p k) and that completion.  Adds the events the DES
     * fires to @p events.  @return when the last slice landed on the
     * port; @p at when none was issued.
     */
    Seconds
    port_arrivals(Seconds at, std::span<Seconds> load_done,
                  std::size_t steps, std::size_t k, std::uint64_t &events)
    {
        if (shards.empty())
            return at;
        Seconds armed = at;
        Seconds fired = at;
        sim::FlowTable::Next next = port->fill(/*count_throttle=*/false);
        for (;;) {
            ++events;
            fired = armed + next.delay;
            port->advance(fired - armed);
            if (fired == armed)
                port->deliver(next.flow);
            if (port->reap_due()) {
                for (const sim::FlowTable::Flow &flow : port->reap()) {
                    ++events;
                    Seconds &done =
                        load_done[shards[flow.id - first] * steps + k];
                    done = std::max(done, fired);
                }
            }
            if (port->empty())
                break;
            next = port->fill(/*count_throttle=*/true);
            armed = fired;
        }
        shards.clear();
        return fired;
    }

    std::vector<Seconds> busy;
    std::vector<Bytes> h2d;
    std::optional<sim::FlowTable> port;
    /** The shards whose slices the port holds, in flow-id order from
     *  `first`. */
    std::vector<std::size_t> shards;
    sim::FlowId first = sim::kInvalidFlow;
};

} // namespace

bool
Executor::run_closed_form()
{
    const std::size_t G = shards_.size();
    if (G != fabric_.gpus() || fabric_.sim().pending_events() != 0)
        return false;
    for (const CompiledSchedule &shard : shards_) {
        if (shard.moves_kv() ||
            shard.layer_rows.size() != shards_.front().layer_rows.size())
            return false;
        for (const LayerRow &layer : shard.layer_rows) {
            // Storage flows have a latency and a port of their own, and
            // the near-data units are one FIFO every GPU queues on.
            if (layer.disk_bytes > 0 ||
                (G > 1 && layer.site == placement::ComputeSite::kNdp))
                return false;
        }
    }
    const sim::BandwidthChannel *read_port = fabric_.host_read_port();
    if (G == 1 && read_port == nullptr)
        return solve<false>();
    return solve<true>();
}

template <bool kShared>
bool
Executor::solve()
{
    const std::size_t G = kShared ? shards_.size() : 1;
    const std::vector<LayerRow> &layers = shards_.front().layer_rows;
    const std::vector<TokenRow> &tokens = shards_.front().token_rows;
    const double link = fabric_.h2d_rate().raw();
    const Seconds overhead = fabric_.gpu_spec().layer_overhead;
    auto gpus = [&] {
        if constexpr (kShared)
            return LockstepGpus(G, fabric_.host_read_port());
        else
            return LoneGpu{};
    }();
    // The DES fires one event per compute and, per flow, its completion
    // (the port's: one per fill), each re-arm of it and the zero-delay
    // callback; past its cap it reports a runaway, which this form
    // leaves to the DES to report.
    std::uint64_t events = G * steps_;
    // Step k's load is issued when step k-1 starts (step 0's at the
    // run's start); step k-1 retires, and step k starts, at the later of
    // step k-1's compute on every shard and that load.
    Seconds issue = fabric_.sim().now();
    Seconds computed = -std::numeric_limits<Seconds>::infinity();
    std::size_t k = 0;
    for (std::size_t t = 0; t < tokens.size(); ++t) {
        for (std::size_t l = 0; l < layers.size(); ++l, ++k) {
            // load_weight(k): a shard's slice lands at the later of its
            // link and port arrivals, the load when the last one does.
            Seconds landed = issue;
            for (std::size_t g = 0; g < G; ++g) {
                const CompiledSchedule &shard = shards_[g];
                const LayerRow &layer = shard.layer_rows[l];
                const Bytes bytes =
                    CompiledSchedule::h2d_bytes(layer, shard.token_rows[t]);
                const std::size_t i = g * steps_ + k;
                load_issue_[i] = issue;
                Seconds done = issue;
                if (bytes > 0) {
                    gpus.h2d[g] += bytes;
                    done = link_arrival(bytes, layer.cpu_cap, link, issue,
                                        events);
                    if constexpr (kShared)
                        gpus.start_port_flow(g, bytes, layer.cpu_cap);
                }
                load_done_[i] = done;
                // No slice lands before its issue, so shard 0's sets the
                // maximum off `issue` (one GPU's chain takes no max).
                landed = g == 0 ? done : std::max(landed, done);
            }
            if constexpr (kShared) {
                landed = std::max(landed,
                                  gpus.port_arrivals(issue, load_done_,
                                                     steps_, k, events));
            }
            if (events > Fabric::kMaxEvents) {
                std::fill(timings_.begin(), timings_.end(), 0.0);
                return false;
            }
            const Seconds start = std::max(computed, landed);
            if (k > 0)
                step_end_[k - 1] = start;
            step_start_[k] = start;
            // compute_layer(k) on every shard.  NDP steps skip the GPU
            // launch overhead and the GPU's busy time.
            for (std::size_t g = 0; g < G; ++g) {
                const CompiledSchedule &shard = shards_[g];
                const LayerRow &layer = shard.layer_rows[l];
                const TokenRow &token = shard.token_rows[t];
                const Seconds compute = shard.compute(layer, token);
                const bool ndp = CompiledSchedule::near_data(layer, token);
                const Seconds done =
                    start + (ndp ? compute : compute + overhead);
                if (!ndp)
                    gpus.busy[g] += done - start;
                // No compute ends before its start, so shard 0's sets
                // the maximum off `start`.
                computed = g == 0 ? done : std::max(computed, done);
            }
            issue = start;
        }
    }
    step_end_[steps_ - 1] = computed;
    for (std::size_t g = 0; g < G; ++g)
        fabric_.book_gpu(first_gpu_ + g, gpus.busy[g], gpus.h2d[g]);
    if constexpr (kShared) {
        if (gpus.port)
            fabric_.book_host_read(*gpus.port);
    }
    start_time_ = fabric_.sim().now();
    completed_ = steps_;
    return true;
}

Executor::StepRows
Executor::rows(std::size_t g, std::size_t k) const
{
    const CompiledSchedule &shard = shards_[g];
    const std::size_t layers = shard.layer_rows.size();
    return {&shard.layer_rows[k % layers], &shard.token_rows[k / layers]};
}

std::span<const KvFlowSpec>
Executor::kv_reads(const StepRows &s)
{
    if (!s.layer->moves_kv)
        return {};
    return s.token->kv.reads;
}

std::span<const KvFlowSpec>
Executor::kv_writes(const StepRows &s)
{
    if (!s.layer->moves_kv)
        return {};
    return s.token->kv.writes;
}

std::size_t
Executor::load_flows(std::size_t g, const StepRows &s) const
{
    return (CompiledSchedule::h2d_bytes(*s.layer, *s.token) > 0 ? 1 : 0) +
           (s.layer->disk_bytes > 0 ? 1 : 0) +
           (shards_[g].kv_prefetch ? kv_reads(s).size() : 0);
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
        loading_steps_[g] = rows(g, k);
        flows_left_[g] = load_flows(g, loading_steps_[g]);
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
        // The last shard's load can land inline and start the next load
        // before this loop ends; every shard after it has no flows.
        if (load_step_ != k)
            return;
        const StepRows &s = loading_steps_[g];
        if (load_flows(g, s) == 0)
            continue;
        const LayerRow &layer = *s.layer;
        const std::uint64_t gpu = first_gpu_ + g;
        auto landed = [this, g] { flow_loaded(g); };
        const Bytes cpu = CompiledSchedule::h2d_bytes(layer, *s.token);
        if (cpu > 0)
            fabric_.host_to_gpu(gpu, cpu, layer.cpu_cap, landed);
        if (shards_[g].kv_prefetch) {
            // Host-resident context streams in alongside the weights,
            // contending for the same h2d channel.
            for (const KvFlowSpec &flow : kv_reads(s))
                fabric_.host_to_gpu(gpu, flow.bytes, flow.cap, landed);
        }
        if (layer.disk_bytes > 0)
            fabric_.storage_to_gpu(gpu, layer.disk_bytes, layer.disk_cap,
                                   landed);
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
    // The steps whose weights just landed run now; issue_load(k + 1)
    // refills loading_steps_.
    std::swap(current_steps_, loading_steps_);
    const bool has_next = k + 1 < steps_;
    joins_left_ = has_next ? 1 : 0;
    for (std::size_t g = 0; g < shards_.size(); ++g)
        joins_left_ += 1 + kv_writes(current_steps_[g]).size();
    // load_weight(i, j+1): prefetch the next step's weights.
    if (has_next)
        issue_load(k + 1);
    for (std::size_t g = 0; g < shards_.size(); ++g) {
        // store_cache(i, j): new K/V entries (and demoted blocks) drain
        // to their host tiers concurrently with compute; sync() waits
        // for them too (FlexGen's store path).
        for (const KvFlowSpec &flow : kv_writes(current_steps_[g])) {
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
 * near-data units: no h2d transfer fed them (their h2d bytes are 0) and
 * no GPU launch overhead applies — their compute already carries the
 * offload command latency.  Only FFN layers offload, so the KV paths
 * never co-occur with an NDP step.
 */
void
Executor::compute(std::size_t g)
{
    const CompiledSchedule &shard = shards_[g];
    const StepRows &s = current_steps_[g];
    const std::span<const KvFlowSpec> reads = kv_reads(s);
    if (CompiledSchedule::near_data(*s.layer, *s.token)) {
        fabric_.occupy_ndp(shard.compute(*s.layer, *s.token),
                           [this] { join(); });
    } else if (!shard.kv_prefetch && !reads.empty()) {
        // Un-prefetched context reads gate the compute.
        reads_left_[g] = reads.size();
        for (const KvFlowSpec &flow : reads) {
            fabric_.host_to_gpu(first_gpu_ + g, flow.bytes, flow.cap,
                                [this, g] { read_landed(g); });
        }
    } else {
        fabric_.occupy_gpu(first_gpu_ + g,
                           shard.compute(*s.layer, *s.token) +
                               fabric_.gpu_spec().layer_overhead,
                           [this] { join(); });
    }
}

void
Executor::read_landed(std::size_t g)
{
    if (--reads_left_[g] > 0)
        return;
    kv_read_done_[g * steps_ + step_] = fabric_.sim().now();
    const StepRows &s = current_steps_[g];
    fabric_.occupy_gpu(first_gpu_ + g,
                       shards_[g].compute(*s.layer, *s.token) +
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
    const ScheduledStep s = shard.step(k);
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
    if (!kv_write_done_.empty() && kv_write_done_[i] >= 0.0)
        rec.kv_write_time = kv_write_done_[i] - step_start_[k];
    if (!kv_read_done_.empty() && kv_read_done_[i] >= 0.0)
        rec.kv_stall_time = kv_read_done_[i] - step_start_[k];
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
    const std::uint64_t layers = head.layer_rows.size();
    const std::uint64_t per_batch = head.tokens * layers;
    tl.reps = per_batch > 0 ? steps_ / per_batch : 0;
    tl.token_end.reserve(tl.reps * tl.tokens);
    for (std::uint64_t rep = 0; rep < tl.reps; ++rep) {
        for (std::uint64_t tok = 0; tok < tl.tokens; ++tok) {
            tl.token_end.push_back(
                step_end_[rep * per_batch + tok * layers + (layers - 1)]);
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
