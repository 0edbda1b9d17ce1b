/**
 * @file
 * The out-of-core inference engine: FlexGen's zig-zag schedule
 * (paper Listing 1), solved in closed form when every channel carries
 * one flow at a time and executed on the discrete-event kernel
 * otherwise (runtime/executor.h).
 *
 * For every (token, layer) step the engine issues the *next* layer's
 * weight transfer (host-tier and storage-tier flows contending on the
 * PCIe channel) concurrently with the current layer's GPU compute, then
 * synchronizes — `load_weight(i, j+1); compute_layer(i, j); sync()`.
 * TTFT, TBT, and throughput fall out of the resulting event timeline
 * (Sec. III-C), and per-step records feed every figure bench.
 */
#ifndef HELM_RUNTIME_ENGINE_H
#define HELM_RUNTIME_ENGINE_H

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "gpu/compute_model.h"
#include "gpu/gpu.h"
#include "kvcache/kvcache.h"
#include "mem/registry.h"
#include "model/footprint.h"
#include "model/transformer.h"
#include "placement/balanced.h"
#include "placement/capacity.h"
#include "placement/helm_placement.h"
#include "placement/ndp_aware.h"
#include "placement/placement.h"
#include "placement/policy.h"
#include "runtime/metrics.h"
#include "runtime/planner.h"

namespace helm::runtime {

/** Complete description of one serving experiment. */
struct ServingSpec
{
    model::TransformerConfig model;
    /** The host memory: a device-table name or a custom CXL expander
     *  (mem/registry.h).  Every host consumer resolves this one field
     *  through mem::make_system(). */
    mem::HostSpec memory = mem::ConfigKind::kNvdram;
    placement::PlacementKind placement =
        placement::PlacementKind::kBaseline;
    /** Requested split; defaults per host system (Sec. V-A) if unset. */
    std::optional<placement::Policy> policy;
    /** HeLM per-layer-type overrides (ablation bench). */
    std::optional<placement::HelmSplits> helm_splits;
    bool compress_weights = false; //!< 4-bit group-wise quantization
    std::uint64_t batch = 1;
    /**
     * FlexGen block schedule: number of GPU micro-batches processed per
     * weight load ("num_gpu_batches").  Each layer's weights transfer
     * once and compute runs `micro_batches` back-to-back GEMMs of
     * `batch` requests, amortizing the transfer.  Effective requests in
     * flight = batch x micro_batches (all must fit the KV budget).
     */
    std::uint64_t micro_batches = 1;
    /**
     * Managed tiered KV cache (src/kvcache); unset keeps the whole
     * cache in HBM.  Blocks of `block_tokens` tokens are placed across
     * the configured tiers (GPU first, then host tiers), the eviction
     * policy demotes blocks when the GPU tier fills, and each decode
     * step only pays PCIe traffic for the host-resident part of the
     * context.  `KvCacheConfig::legacy_offload()` — a single unbounded
     * host tier — is FlexGen's cache_cpu_percent = 100: it frees the
     * GPU's KV budget at the cost of moving the context over PCIe
     * every decode step and writing new entries back at the host's
     * *write* bandwidth (Optane's 3.26 GB/s, Fig. 3b).
     */
    std::optional<kvcache::KvCacheConfig> kv_cache;
    model::SequenceShape shape; //!< default 128 in / 21 out (paper)
    std::uint64_t repeats = 2;  //!< sequential batches; first discarded
    gpu::GpuSpec gpu = gpu::GpuSpec::a100_40gb();
    mem::PcieLink pcie = mem::PcieLink::gen4_x16();
    /**
     * Compute-site assignment (placement/ndp_aware.h).  The default
     * kGpuOnly is today's path, bit-for-bit.  kNdpAuto/kNdpAll require
     * an NDP-capable host tier (memory = "NDP-DIMM"): offloaded
     * layers skip their h2d weight transfer entirely and charge the
     * near-data GEMV time on the host's near-data units instead.
     */
    placement::ComputeSiteMode compute_site =
        placement::ComputeSiteMode::kGpuOnly;
    bool enforce_gpu_capacity = true; //!< spill weights that do not fit
    bool keep_records = true;         //!< retain per-step records

    /**
     * Check the spec before running it: field ranges, policy percentages
     * summing to 100, host rules (a known device or a positive custom
     * CXL bandwidth, no disk share without a storage tier, near-data
     * compute only on an NDP-capable host), and KV/batch feasibility (the
     * effective batch must fit the GPU even with zero resident weights).
     * `Server`, the CLI, and the benches all report the same errors this
     * way before paying for a simulation; simulate_inference() runs the
     * same checks, in the same order, and never runs an invalid spec.
     * validate() == validate_fields(), then check_gpu_floor() on the
     * spec's own layer list.
     */
    Status validate() const;

    /** validate() without the KV/batch floor: field ranges and host
     *  rules only. */
    Status validate_fields() const;

    /** validate()'s KV/batch floor against @p staging, the staging
     *  sizes of this spec's own layer list, built once by a caller that
     *  needs it anyway (the schedule compiler, Server::create).  OK when
     *  !enforce_gpu_capacity. */
    Status check_gpu_floor(const StagingSizes &staging) const;

    /** True when the whole KV cache lives in HBM (no managed tiers) —
     *  the planner then budgets the full cache. */
    bool kv_resident_on_gpu() const { return !kv_cache.has_value(); }

    /** The KV configuration this spec resolves to: `kv_cache` if set,
     *  else KvCacheConfig::gpu_only(). */
    kvcache::KvCacheConfig kv_config() const;
};

/** FlexGen's default policy for a host system (Sec. V-A): disk
 *  offload when it has a storage tier, host offload otherwise. */
placement::Policy default_policy(const mem::HostMemorySystem &system);

/** Everything a run produces. */
struct RunResult
{
    InferenceMetrics metrics;
    std::vector<LayerStepRecord> records; //!< empty if !keep_records
    placement::PlacementMap placement;    //!< post capacity enforcement
    placement::SpillReport spill;
    GpuBudget budget;      //!< GPU memory breakdown at the run batch
    Bytes model_bytes = 0; //!< total stored weight bytes
    /** Tier occupancy/traffic from the KV manager (every run has one —
     *  an unset `kv_cache` maps to KvCacheConfig::gpu_only()). */
    kvcache::KvCacheStats kv_stats;
    /** The h2d weight-transfer fabric's channel rate — the shared host
     *  port a single-GPU run contends on (trace utilization counters). */
    Bandwidth h2d_rate;
    /** Steps executed near-data on the NDP tier (0 = all-GPU run). */
    std::uint64_t ndp_steps = 0;
    /** Host-resident weight bytes those steps kept off the h2d fabric,
     *  summed over the whole run. */
    Bytes ndp_bytes = 0;
};

/**
 * Simulate one serving experiment end to end.
 * Fails with kInvalidArgument / kCapacityExceeded on misconfiguration
 * (policy not summing to 100, disk weights without a storage tier,
 * batch that cannot fit even with zero GPU-resident weights, ...).
 */
Result<RunResult> simulate_inference(const ServingSpec &spec);

} // namespace helm::runtime

#endif // HELM_RUNTIME_ENGINE_H
