/**
 * @file
 * The zig-zag executor (paper Listing 1) and the host fabric it runs on.
 *
 * A Fabric is one DES timeline holding, per GPU, a private h2d/d2h
 * channel pair and a compute stream, plus the host memory's near-data
 * GEMV units (one `ndp-compute` resource every GPU shares — the units
 * belong to the host memory, not to a GPU).  Optional shared host read,
 * write and storage ports model several GPUs hanging off one host
 * memory: a transfer then occupies its GPU's link *and* the port for the
 * full byte count and completes when the slower delivers its last byte.
 * Without ports a transfer is a single flow on the GPU's own channel,
 * so a one-GPU fabric with no ports is exactly the single-GPU engine.
 *
 * An Executor drives a group of G compiled shards through the zig-zag
 * loop in lockstep: step k issues every shard's `load_weight(k+1)`, its
 * KV writeback and its `compute_layer(k)`, and retires when all of them
 * have (`sync()`).  G = 1 serves simulate_inference() and each cluster
 * replica job; G = N serves tensor parallelism.
 *
 * run() always drives the DES.  run_closed_form() solves the same loop
 * without it for G lockstep shards on a G-GPU fabric whose only flows
 * are the weight loads — no disk or KV flows, and for G > 1 no
 * near-data layers — which takes every single-GPU engine run of that
 * kind and every such tensor-parallel cluster batch.  There the zig-zag
 * timeline is the overlap recurrence of paper Fig. 5: a step ends at
 * the later of every shard's compute and the next layer's load, and a
 * shard's load lands at the later of its link and read-port arrivals.
 * It walks the schedule's token rows x layer rows and evaluates the
 * DES's own floating-point expressions in the DES's order: a link flow
 * is a lone flow with its round-off re-arms, and the port's G flows are
 * timed by a sim::FlowTable driven in the port channel's sequence (one
 * fill at the issue, then advance, reap, fill and re-arm at each
 * completion).  So its timeline and counters are bit-identical; the DES
 * stays the general path (replica and pipeline runs, KV and disk
 * traffic) and the oracle the closed form is tested against.
 */
#ifndef HELM_RUNTIME_EXECUTOR_H
#define HELM_RUNTIME_EXECUTOR_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "gpu/gpu.h"
#include "mem/host_system.h"
#include "runtime/metrics.h"
#include "runtime/schedule.h"
#include "sim/bandwidth_channel.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace helm::runtime {

/** Per-GPU link rates and optional shared-port rates of a Fabric. */
struct FabricRates
{
    Bandwidth h2d; //!< each GPU's h2d channel rate
    Bandwidth d2h; //!< each GPU's d2h channel rate
    Seconds storage_latency = 0.0; //!< software latency before a storage
                                   //!< flow starts moving bytes
    /** Shared host-memory ports; a zero rate means the port is absent. */
    Bandwidth host_read;
    Bandwidth host_write;
    Bandwidth storage_read;
};

/**
 * One GPU's link rates for @p system, with no shared ports.  The h2d
 * channel is PCIe DMA normally, but CXL configurations project direct
 * CXL.mem access whose rate can exceed the PCIe path (Sec. V-D), so it
 * is sized to whichever is faster; per-flow caps enforce the actual
 * path.
 */
FabricRates link_rates(const mem::HostMemorySystem &system);

/** The GPUs, links, shared ports and near-data units of one DES run. */
class Fabric
{
  public:
    /** Events one run may fire before it is declared a runaway. */
    static constexpr std::uint64_t kMaxEvents = 200'000'000;

    Fabric(std::uint64_t gpus, const gpu::GpuSpec &gpu,
           const FabricRates &rates);

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    sim::Simulator &sim() { return sim_; }
    std::uint64_t gpus() const { return gpus_.size(); }
    const gpu::GpuSpec &gpu_spec() const { return gpu_; }

    /** Host tier -> GPU @p g over its h2d channel and the read port. */
    void host_to_gpu(std::uint64_t g, Bytes bytes, Bandwidth cap,
                     std::function<void()> on_done);
    /** Storage tier -> GPU @p g: software latency, then the h2d channel
     *  and the storage port. */
    void storage_to_gpu(std::uint64_t g, Bytes bytes, Bandwidth cap,
                        std::function<void()> on_done);
    /** GPU @p g -> host tier over its d2h channel and the write port. */
    void gpu_to_host(std::uint64_t g, Bytes bytes, Bandwidth cap,
                     std::function<void()> on_done);
    /** Occupy GPU @p g's compute stream for @p duration. */
    void occupy_gpu(std::uint64_t g, Seconds duration,
                    std::function<void()> on_done);
    /** Occupy the host memory's near-data GEMV units for @p duration. */
    void occupy_ndp(Seconds duration, std::function<void()> on_done);

    /**
     * Fire events until none remain.  Status::internal when more than
     * @p max_events fire — a schedule that never drains.
     */
    Status run(std::uint64_t max_events = kMaxEvents);

    /** Water-fill passes of every link and port so far (see
     *  sim::BandwidthChannel::fill_passes()). */
    std::uint64_t fill_passes() const;

    Bandwidth h2d_rate() const { return rates_.h2d; }
    Seconds compute_busy(std::uint64_t g) const;
    Bytes h2d_bytes(std::uint64_t g) const { return gpus_[g].h2d_bytes; }
    Bytes d2h_bytes(std::uint64_t g) const { return gpus_[g].d2h_bytes; }

    /** Add what a run solved without the DES (Executor::
     *  run_closed_form) would have left on GPU @p g under run(): its
     *  compute busy time and h2d bytes. */
    void book_gpu(std::uint64_t g, Seconds compute_busy, Bytes h2d_bytes);
    /** Add the counters of the flow table a closed form drove in the
     *  host read port's place: delivered bytes, throttle events and
     *  fill passes. */
    void book_host_read(const sim::FlowTable &solved);

    /** Shared ports (null when absent). */
    const sim::BandwidthChannel *host_read_port() const
    {
        return host_read_.get();
    }
    const sim::BandwidthChannel *host_write_port() const
    {
        return host_write_.get();
    }
    const sim::BandwidthChannel *storage_read_port() const
    {
        return storage_read_.get();
    }

  private:
    struct Gpu
    {
        Gpu(sim::Simulator &sim, const FabricRates &rates);
        sim::BandwidthChannel h2d;
        sim::BandwidthChannel d2h;
        sim::FifoResource compute;
        Bytes h2d_bytes = 0; //!< including KV reads
        Bytes d2h_bytes = 0;
    };

    void dual_flow(sim::BandwidthChannel &local, sim::BandwidthChannel *port,
                   Bytes bytes, Bandwidth cap,
                   std::function<void()> on_done);

    gpu::GpuSpec gpu_;
    FabricRates rates_;
    sim::Simulator sim_; //!< outlives every channel below
    std::deque<Gpu> gpus_;
    std::unique_ptr<sim::BandwidthChannel> host_read_;
    std::unique_ptr<sim::BandwidthChannel> host_write_;
    std::unique_ptr<sim::BandwidthChannel> storage_read_;
    sim::FifoResource ndp_;
};

/** What one executed batch looked like on the fabric's timeline. */
struct BatchTimeline
{
    Seconds start = 0.0; //!< virtual time the batch began
    Seconds end = 0.0;   //!< virtual time the last step retired
    std::uint64_t reps = 0;
    std::uint64_t tokens = 0;
    /** Absolute completion time of each token, rep-major. */
    std::vector<Seconds> token_end;
    std::vector<LayerStepRecord> records; //!< if requested
};

/** Per-rep TTFT and mean TBT of a timeline (Sec. III-C). */
struct TokenLatencies
{
    std::vector<double> ttft;
    std::vector<double> tbt;
};

/** Rep r starts when rep r-1's last token retires (rep 0 at start). */
TokenLatencies token_latencies(const BatchTimeline &tl);

/**
 * Add @p step's traffic to @p rec: weight bytes by source (host,
 * storage), KV read and write totals, and every KV flow — prefetched
 * or blocking — on its tier's `kv_tiers` entry (one entry per tier, in
 * first-seen order).  A record that spans several steps (a pipeline
 * stage's token) adds each of them.
 */
void add_step_traffic(LayerStepRecord &rec, const CompiledSchedule &shard,
                      const ScheduledStep &step);

/**
 * The zig-zag loop over G shards in lockstep.  At most one step and one
 * load are in flight, so the joins are member counters rather than
 * heap latches.  Non-copyable: event callbacks hold its address until
 * the fabric drains.
 */
class Executor
{
  public:
    /**
     * @param shards G >= 1 schedules with equal step counts, borrowed —
     *        they must outlive the executor.  Shard i runs on fabric GPU
     *        @p first_gpu + i.
     */
    Executor(Fabric &fabric, std::span<const CompiledSchedule> shards,
             std::uint64_t first_gpu = 0);

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Issue step 0 now; @p on_done fires when the last step retires. */
    void start(std::function<void(const Executor &)> on_done = {});

    /** start(), drain the fabric, then status() — always the DES. */
    Status run();

    /**
     * Fill the timeline by the overlap recurrence instead of the DES,
     * bit-identical to run(), for G >= 1 lockstep shards on a G-GPU
     * fabric with no pending events: each shard's load is a lone flow
     * on its own link and, when the fabric has a host read port, one of
     * G flows on the port.  Returns false, with the executor and the
     * fabric as constructed, when some shard moves KV or disk bytes, when
     * G > 1 and some layer runs near-data (the NDP units are one FIFO),
     * or when the DES would fire more than Fabric::kMaxEvents events;
     * call run() then.  On success the fabric's counters advance as
     * run() would advance them (compute busy, h2d bytes, the read port's
     * bytes and throttle events; fill passes count the port fills this
     * form ran), and its clock does not.
     */
    bool run_closed_form();

    /** OK once every step retired; Status::internal otherwise. */
    Status status() const;

    /**
     * Token completion times and, when @p keep_records, one record per
     * (shard, step); @p batch_tag offsets the records' batch_index.
     */
    BatchTimeline timeline(bool keep_records,
                           std::uint64_t batch_tag = 0) const;

  private:
    /** Step k of one shard as its two rows. */
    struct StepRows
    {
        const LayerRow *layer = nullptr;
        const TokenRow *token = nullptr;
    };

    /** run_closed_form() on a run it takes.  Without @p kShared the
     *  run is one shard on its link alone, and the compiler drops the
     *  shard loop and the port. */
    template <bool kShared> bool solve();

    StepRows rows(std::size_t g, std::size_t k) const;
    /** Flows @p s's load_weight issues on shard @p g: weights from
     *  either tier plus prefetched KV reads. */
    std::size_t load_flows(std::size_t g, const StepRows &s) const;
    /** @p s's KV reads and writebacks (empty off MHA layers). */
    static std::span<const KvFlowSpec> kv_reads(const StepRows &s);
    static std::span<const KvFlowSpec> kv_writes(const StepRows &s);

    void issue_load(std::size_t k);
    void flow_loaded(std::size_t g);
    void loaded();
    void start_step(std::size_t k);
    void compute(std::size_t g);
    void read_landed(std::size_t g);
    void join();
    LayerStepRecord record(std::size_t g, std::size_t k,
                           std::uint64_t batch_tag) const;

    Fabric &fabric_;
    std::span<const CompiledSchedule> shards_;
    std::uint64_t first_gpu_;
    std::size_t steps_; //!< per shard
    std::function<void(const Executor &)> on_done_;
    Seconds start_time_ = 0.0;
    std::size_t completed_ = 0;
    std::size_t step_ = 0;       //!< the step whose sync() is pending
    std::size_t joins_left_ = 0; //!< sync() joins step_ still awaits
    std::size_t load_step_ = 0;  //!< the step whose weights are loading
    std::size_t loading_ = 0;    //!< shards still loading load_step_
    std::vector<std::size_t> flows_left_; //!< [g] load flows in flight
    std::vector<std::size_t> reads_left_; //!< [g] blocking KV reads
    /** [g] step load_step_ and step step_ of each shard, looked up
     *  once when its load is issued. */
    std::vector<StepRows> loading_steps_;
    std::vector<StepRows> current_steps_;
    /** One allocation behind the four timing arrays below.  Under
     *  glibc, four separate arrays each fall below the mmap threshold,
     *  and every cold run handed them back to the OS and page-faulted
     *  them in again (32 faults per closed-form OPT-175B run). */
    std::vector<Seconds> timings_;
    std::span<Seconds> step_start_; //!< [k]
    std::span<Seconds> step_end_;   //!< [k]
    // Per (shard, step), indexed g * steps_ + k.
    std::span<Seconds> load_issue_;
    std::span<Seconds> load_done_;
    // Empty when no shard moves KV: every step then reads "no KV".
    std::vector<Seconds> kv_read_done_;  //!< -1 = no blocking reads
    std::vector<Seconds> kv_write_done_; //!< -1 = no writeback
};

} // namespace helm::runtime

#endif // HELM_RUNTIME_EXECUTOR_H
