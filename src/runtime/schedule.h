/**
 * @file
 * Schedule compilation: turn a ServingSpec into the zig-zag schedule
 * the executors run, kept as one row per layer and one per (repeat,
 * token) — a step's weights and caps depend only on its layer, its
 * compute only on the layer type and the token.
 *
 * simulate_inference() always did this internally; the cluster
 * subsystem needs the same compilation per GPU — optionally *sharded*
 * (tensor: every matrix weight split N ways; pipeline: a contiguous
 * layer range) — so the placement run, capacity enforcement, KV-tier
 * resolution, and the row tables live here behind a public API.
 * compile_schedule() with default ShardOptions is bit-for-bit the
 * single-GPU path.
 */
#ifndef HELM_RUNTIME_SCHEDULE_H
#define HELM_RUNTIME_SCHEDULE_H

#include <array>
#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "gpu/compute_model.h"
#include "kvcache/kvcache.h"
#include "mem/host_system.h"
#include "model/transformer.h"
#include "placement/capacity.h"
#include "placement/ndp_aware.h"
#include "placement/placement.h"
#include "runtime/engine.h"
#include "runtime/planner.h"

namespace helm::runtime {

/** One KV transfer of a step: bytes moving to/from one cache tier. */
struct KvFlowSpec
{
    std::size_t tier = 0; //!< KvCacheConfig tier index
    Bytes bytes = 0;
    Bandwidth cap;        //!< effective rate for this chunk
};

/** The KV traffic of one (repeat, token): every MHA layer of that token
 *  moves exactly these flows. */
struct KvTraffic
{
    /** Host-tier -> GPU context fetches (decode steps). */
    std::vector<KvFlowSpec> reads;
    /** GPU -> host-tier K/V appends + block demotions. */
    std::vector<KvFlowSpec> writes;
    Bytes read_bytes = 0;  //!< sum over reads
    Bytes write_bytes = 0; //!< sum over writes
    /** Occupancy per KV tier (kv_tier_names order) sampled right after
     *  this token's cache update; empty when not sampled. */
    std::vector<Bytes> occupancy;
};

/** Every LayerType, in enumerator order (kLayerTypes[i] has value i). */
inline constexpr std::array<model::LayerType, 4> kLayerTypes = {
    model::LayerType::kInputEmbedding, model::LayerType::kMha,
    model::LayerType::kFfn, model::LayerType::kOutputEmbedding};

/**
 * One layer of the shard: what its step carries whatever the token.
 * A layer's weight bytes and transfer caps depend only on its placement.
 */
struct LayerRow
{
    int layer = 0; //!< model-global layer index (pipeline shards keep
                   //!< their absolute position)
    model::LayerType type = model::LayerType::kMha;
    Bytes cpu_bytes = 0;
    Bytes disk_bytes = 0;
    Bandwidth cpu_cap;  //!< effective host->GPU rate for cpu_bytes
    Bandwidth disk_cap; //!< effective storage->GPU rate for disk_bytes
    /** Where the layer's matrix work runs on decode tokens; prefill
     *  always runs on the GPU. */
    placement::ComputeSite site = placement::ComputeSite::kGpu;
    /** The layer's steps move their token's KV traffic (MHA layers). */
    bool moves_kv = false;
};

/**
 * One (repeat, token): what every layer's step shares that token.  Each
 * layer of one type does the same work (MHA reads the context, the
 * others depend only on the stage), so compute is kept per type.
 */
struct TokenRow
{
    std::uint64_t batch_index = 0;
    std::uint64_t token = 0;
    gpu::Stage stage = gpu::Stage::kPrefill;
    /** GPU time of one step per LayerType. */
    std::array<Seconds, kLayerTypes.size()> compute{};
    /** Matrix FLOPs of one step per LayerType, the near-data site's
     *  input; zero unless this is a decode token of an NDP run. */
    std::array<double, kLayerTypes.size()> ndp_flops{};
    KvTraffic kv;
};

/** ScheduledStep::kv of a step with no KV traffic (non-MHA layers). */
inline constexpr std::uint32_t kNoKv = 0xffffffffu;

/** One (batch, token, layer) step of the zig-zag schedule, rebuilt by
 *  CompiledSchedule::step() from its layer and token rows. */
struct ScheduledStep
{
    std::uint64_t batch_index = 0;
    std::uint64_t token = 0;
    int layer = 0; //!< model-global layer index
    model::LayerType type = model::LayerType::kMha;
    gpu::Stage stage = gpu::Stage::kPrefill;
    Seconds compute = 0.0;
    Bytes cpu_bytes = 0;
    Bytes disk_bytes = 0;
    Bandwidth cpu_cap;  //!< effective host->GPU rate for this chunk
    Bandwidth disk_cap; //!< effective storage->GPU rate
    /** Token row whose KV traffic this step moves; kNoKv for steps
     *  without KV traffic.  Read it through the schedule's
     *  kv_reads() / kv_writes() / kv_occupancy() / kv_*_bytes(). */
    std::uint32_t kv = kNoKv;
    /** Overlap the reads with the previous step (weight-prefetch path);
     *  off = the reads gate this step's compute. */
    bool kv_prefetch = true;
    /** Where this step's matrix work executes.  kNdp steps carry no
     *  cpu_bytes (their weights never cross h2d); `compute` is the
     *  near-data time including the offload command latency. */
    placement::ComputeSite site = placement::ComputeSite::kGpu;
    /** Host-tier weight bytes served near-data instead of over h2d. */
    Bytes ndp_bytes = 0;
};

/**
 * How one GPU's slice of the model is cut when N GPUs share it.
 * Default = no sharding (the whole model on one GPU).
 */
struct ShardOptions
{
    enum class Kind
    {
        kNone,     //!< full model (replica / single GPU)
        kTensor,   //!< matrix weights, compute, and KV split `count` ways
        kPipeline, //!< contiguous layer range [layer_begin, layer_end)
    };
    Kind kind = Kind::kNone;
    std::uint64_t count = 1; //!< GPUs sharing the model
    std::uint64_t index = 0; //!< this GPU's shard
    std::uint64_t layer_begin = 0; //!< pipeline: first layer (inclusive)
    std::uint64_t layer_end = 0;   //!< pipeline: one past the last layer
};

/**
 * Everything compilation produces: the schedule as layer rows x token
 * rows, plus the artifacts the caller reports (placement, budget, KV
 * stats) and the calibrated memory system whose resident set is
 * already applied.  Step k of the zig-zag loop is (token row
 * k / layers, layer row k % layers); step() rebuilds it by value.
 */
struct CompiledSchedule
{
    /** One row per shard layer, in layer order. */
    std::vector<LayerRow> layer_rows;
    /** One row per (repeat, token), repeat-major. */
    std::vector<TokenRow> token_rows;
    /** KV reads overlap the previous step (KvCacheConfig::prefetch). */
    bool kv_prefetch = true;
    /** Executions one weight load serves (ServingSpec::micro_batches):
     *  a near-data step streams its host bytes that many times. */
    std::uint64_t micro_batches = 1;
    /** The host's near-data units (set when some layer runs there). */
    placement::NdpProfile ndp_profile;
    placement::PlacementMap placement; //!< post capacity enforcement
    placement::SpillReport spill;
    GpuBudget budget;
    Bytes model_bytes = 0;      //!< stored weight bytes of this shard
    kvcache::KvCacheStats kv_stats;
    mem::HostMemorySystem system = //!< resident set applied
        mem::make_config(mem::ConfigKind::kDram, mem::PcieLink::gen4_x16());
    std::vector<std::string> kv_tier_names; //!< by KvFlowSpec::tier
    std::uint64_t tokens = 0;          //!< output tokens per batch
    std::uint64_t effective_batch = 0; //!< batch x micro_batches
    /** Host-resident working set of this shard (weights on the host
     *  tier + host-resident KV overflow) — sized the bandwidth curve. */
    Bytes host_resident_bytes = 0;
    /** The weight part of host_resident_bytes.  Replicas share one
     *  read-only copy; KV overflow is private per GPU — the cluster
     *  sizes its shared-port working set from this split. */
    Bytes host_weight_bytes = 0;

    /** Steps in the schedule: token rows x layer rows. */
    std::uint64_t
    step_count() const
    {
        return token_rows.size() * layer_rows.size();
    }

    /** Step @p k of the zig-zag loop, rebuilt from its rows. */
    ScheduledStep step(std::uint64_t k) const;

    /** Whether @p layer runs near-data on @p token (decode only). */
    static bool
    near_data(const LayerRow &layer, const TokenRow &token)
    {
        return layer.site == placement::ComputeSite::kNdp &&
               token.stage == gpu::Stage::kDecode;
    }

    /** Host-tier weight bytes @p layer's step moves over h2d on
     *  @p token: none when it runs near-data. */
    static Bytes
    h2d_bytes(const LayerRow &layer, const TokenRow &token)
    {
        return near_data(layer, token) ? 0 : layer.cpu_bytes;
    }

    /** Compute time of @p layer's step on @p token: the token's GPU
     *  time for the layer's type, or the near-data time including the
     *  offload command latency. */
    Seconds
    compute(const LayerRow &layer, const TokenRow &token) const
    {
        const auto type = static_cast<std::size_t>(layer.type);
        if (!near_data(layer, token))
            return token.compute[type];
        // Near-data execution: the layer's weights never cross h2d;
        // the step instead occupies the NDP units for the offloaded
        // GEMV time plus one dispatch command.  Decode only — prefill
        // GEMMs are compute-bound and would crawl on the GEMV units, so
        // they keep the GPU path (and its h2d transfer), the split NDP
        // serving systems use.
        return ndp_profile.command_latency +
               placement::ndp_execution_time(
                   ndp_profile, layer.cpu_bytes * micro_batches,
                   token.ndp_flops[type]);
    }

    /** Whether some step moves KV traffic (an MHA layer and a token
     *  with reads or writes). */
    bool moves_kv() const;

    /** @p step's KV context fetches (empty without KV traffic). */
    std::span<const KvFlowSpec>
    kv_reads(const ScheduledStep &step) const
    {
        if (step.kv == kNoKv)
            return {};
        return token_rows[step.kv].kv.reads;
    }

    /** @p step's KV writebacks (empty without KV traffic). */
    std::span<const KvFlowSpec>
    kv_writes(const ScheduledStep &step) const
    {
        if (step.kv == kNoKv)
            return {};
        return token_rows[step.kv].kv.writes;
    }

    /** Bytes @p step fetches over kv_reads(step). */
    Bytes
    kv_read_bytes(const ScheduledStep &step) const
    {
        return step.kv == kNoKv ? 0 : token_rows[step.kv].kv.read_bytes;
    }

    /** Bytes @p step writes back over kv_writes(step). */
    Bytes
    kv_write_bytes(const ScheduledStep &step) const
    {
        return step.kv == kNoKv ? 0 : token_rows[step.kv].kv.write_bytes;
    }

    /** @p step's per-tier KV occupancy sample (empty when unsampled). */
    std::span<const Bytes>
    kv_occupancy(const ScheduledStep &step) const
    {
        if (step.kv == kNoKv)
            return {};
        return token_rows[step.kv].kv.occupancy;
    }
};

/**
 * The model slice one shard sees: the (possibly scaled) layer list, the
 * KV-cache geometry, and the compute scale.  This is what both the
 * compiler and the cluster scheduler's admission math size against.
 */
struct ShardGeometry
{
    std::vector<model::LayerSpec> layers;
    /** Geometry the KV manager and GPU planner see: tensor shards hold
     *  1/count of the K/V heads, pipeline shards only their own
     *  decoder blocks' cache. */
    model::TransformerConfig kv_model;
    std::uint64_t first_layer = 0; //!< model-global index of layers[0]
    double compute_scale = 1.0;    //!< tensor: 1/count
};

/**
 * Run @p allocate, which sizes an array of @p count @p what; an
 * allocation failure becomes kCapacityExceeded instead of an exception.
 * ServingSpec::validate_fields() bounds a schedule by the simulator's
 * event limit, not by host memory, so a per-token or per-step array
 * can still be more than the process may allocate.
 */
template <typename Allocate>
Status
allocate_per_step(std::uint64_t count, const char *what, Allocate &&allocate)
{
    try {
        allocate();
    } catch (const std::bad_alloc &) {
        return Status::capacity_exceeded(std::to_string(count) + " " + what +
                                         " do not fit in host memory");
    }
    return Status::ok();
}

/** Slice the model per @p shard; validates the shard options. */
Result<ShardGeometry> shard_geometry(const ServingSpec &spec,
                                     const ShardOptions &shard = {});

/**
 * Compile @p spec into its layer and token rows.  With the default
 * @p shard this is exactly the single-GPU path simulate_inference()
 * executes; tensor/pipeline shards re-run placement and capacity
 * enforcement on the shard's slice so every GPU gets its own
 * capacity-aware split.
 */
Result<CompiledSchedule> compile_schedule(const ServingSpec &spec,
                                          const ShardOptions &shard = {});

} // namespace helm::runtime

#endif // HELM_RUNTIME_SCHEDULE_H
