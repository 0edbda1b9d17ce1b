/**
 * @file
 * Tiered KV-cache manager: paged (vLLM-style) block placement across a
 * GPU tier and one or more host tiers.
 *
 * The paper's All-CPU scheme wins throughput by freeing GPU memory for
 * the KV cache, and its Sec. VI notes cache offloading "can be combined
 * with our work to further increase batch sizes".  This subsystem
 * models that combination at block granularity: each request's K/V
 * entries are appended into fixed-size token blocks, every block is
 * resident in exactly one tier, and when the preferred (GPU) tier fills
 * up a pluggable eviction policy demotes victim blocks to the next host
 * tier with space.  The engine charges each decode step's per-tier
 * reads/writes through the discrete-event simulator, so the NVDRAM
 * write ceiling (Fig. 3b, 3.26 GB/s) becomes visible per block instead
 * of per whole-cache bool.
 *
 * The manager itself is pure bookkeeping — bytes in, bytes out, no
 * timing.  Bandwidth caps are resolved by the engine against the run's
 * mem::HostMemorySystem (or a tier's explicit override), keeping the
 * layering rule that only `runtime` knows about time.
 */
#ifndef HELM_KVCACHE_KVCACHE_H
#define HELM_KVCACHE_KVCACHE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "model/transformer.h"

namespace helm::kvcache {

/** Which resident block to demote when the preferred tier is full. */
enum class EvictionPolicy
{
    /** Least-recently-touched block (oldest K/V entries go first). */
    kLru,
    /** Victim blocks come from the request with the longest context. */
    kLongestContextFirst,
};

/** Printable name ("lru", "longest-context"). */
const char *eviction_policy_name(EvictionPolicy policy);

/** Parse a policy name, in any case. */
Result<EvictionPolicy> parse_eviction_policy(const std::string &name);

/** One placement tier for KV blocks, in allocation-preference order. */
struct TierSpec
{
    std::string name;    //!< diagnostic label ("gpu", "nvdram", ...)
    /** Block capacity in bytes; 0 = unbounded. */
    Bytes capacity = 0;
    /** GPU-resident tier: reads/writes are free (no PCIe traffic). */
    bool is_gpu = false;
    /**
     * GPU tier only: let the engine size the capacity from the
     * planner's free-HBM math at the run batch (capacity is ignored).
     */
    bool auto_capacity = false;
    /**
     * Host-tier -> GPU bandwidth cap for KV reads.  Zero = resolve from
     * the run's HostMemorySystem (host_to_gpu_bw at the flow size).
     */
    Bandwidth read_bw;
    /** GPU -> tier cap for KV writes; zero = gpu_to_host_bw. */
    Bandwidth write_bw;
};

/** Complete managed-KV configuration. */
struct KvCacheConfig
{
    /** Tokens per block (vLLM-style page; 16 is vLLM's default). */
    std::uint64_t block_tokens = 16;
    /** Tiers in allocation-preference (and demotion) order. */
    std::vector<TierSpec> tiers;
    EvictionPolicy eviction = EvictionPolicy::kLru;
    /**
     * Overlap the next step's host-resident KV reads with the current
     * step's compute (issued alongside the weight prefetch).  Off =
     * reads block the step's compute, exposing the fetch latency.
     */
    bool prefetch = true;

    Status validate() const;

    /** Everything on the GPU, unbounded: what an unset
     *  `ServingSpec::kv_cache` resolves to. */
    static KvCacheConfig gpu_only();

    /**
     * Whole-cache offload (`--kv-offload`, FlexGen's
     * cache_cpu_percent = 100): one unbounded host tier, no GPU tier —
     * every decode step re-streams the full context and new K/V
     * entries drain at the host write bandwidth.
     */
    static KvCacheConfig legacy_offload();

    /**
     * The managed default: an auto-sized GPU tier backed by one host
     * tier of @p host_capacity bytes (0 = unbounded).
     */
    static KvCacheConfig tiered(Bytes host_capacity = 0);
};

/** Occupancy + traffic accounting for one tier. */
struct TierStats
{
    std::string name;
    Bytes capacity = 0;        //!< 0 = unbounded
    Bytes occupancy = 0;       //!< whole-block bytes currently held
    Bytes peak_occupancy = 0;
    std::uint64_t blocks = 0;  //!< blocks currently resident
    Bytes read_bytes = 0;      //!< tier -> GPU context fetch (all layers)
    Bytes write_bytes = 0;     //!< GPU -> tier K/V appends
    Bytes demoted_in_bytes = 0; //!< arrived by demotion from above
    /** Context-block touches during decode reads: each is a hit when
     *  the tier is GPU-resident, a (paid) miss otherwise. */
    std::uint64_t lookups = 0;
};

/** Aggregate manager statistics over its lifetime. */
struct KvCacheStats
{
    std::vector<TierStats> tiers;
    std::uint64_t demotions = 0; //!< blocks pushed down a tier
};

/**
 * Per-tier transfer demand of one engine token step, for ONE MHA layer
 * (every decoder block moves the same bytes; the engine stamps these
 * onto each MHA step of the token).  Indexed by tier.
 */
struct StepTraffic
{
    std::vector<Bytes> read_bytes;  //!< tier -> GPU (context fetch)
    std::vector<Bytes> write_bytes; //!< GPU -> tier (appends + demotions)
};

/**
 * The block manager.  One instance per engine run (or per serving
 * admission horizon); all operations are deterministic — std::map
 * iteration order, explicit tie-breaks, no wall-clock input.
 *
 * Invariants (pinned by tests/kvcache/kvcache_property_test.cc):
 *  - a block is resident in exactly one tier;
 *  - no bounded tier's occupancy ever exceeds its capacity;
 *  - identical call sequences yield identical traffic and stats.
 */
class KvCacheManager
{
  public:
    /** Validates @p config; tiers with auto_capacity must be resolved
     *  (engine fills in the planner capacity) before blocks allocate. */
    static Result<KvCacheManager> create(KvCacheConfig config,
                                         const model::TransformerConfig &model);

    // ---- Geometry -----------------------------------------------------
    /** Whole-model bytes of one full block (all decoder blocks). */
    Bytes block_bytes() const { return block_bytes_; }
    /** Blocks needed to hold @p tokens of context. */
    std::uint64_t blocks_for_tokens(std::uint64_t tokens) const;
    /**
     * How many requests of @p max_context tokens fit the configured
     * capacities, capped at @p limit (returned for unbounded tiers).
     */
    std::uint64_t request_slots(std::uint64_t max_context,
                                std::uint64_t limit = 4096) const;

    // ---- Request lifecycle -------------------------------------------
    /** Register an empty request; ids must be unique among live ones. */
    Status add_request(std::uint64_t id);

    /**
     * One engine token step: append @p new_tokens to EVERY live request
     * (in id order), evicting/demoting as capacity demands, and return
     * the per-MHA-layer traffic.  @p count_reads adds the decode-step
     * context fetch (all host-resident tokens after the append);
     * prefill passes false — the K/V it attends to was just computed on
     * the GPU.  kCapacityExceeded when a block fits no tier.
     */
    Result<StepTraffic> step(std::uint64_t new_tokens, bool count_reads);

    /** Drop every live request (next engine repeat); stats persist. */
    void reset_requests();

    // ---- Introspection ------------------------------------------------
    std::size_t tier_count() const { return config_.tiers.size(); }
    const TierSpec &tier(std::size_t i) const { return config_.tiers[i]; }
    const KvCacheConfig &config() const { return config_; }
    const KvCacheStats &stats() const { return stats_; }
    /** Tier occupancy in whole-block bytes. */
    Bytes tier_occupancy(std::size_t i) const;

  private:
    struct BlockState
    {
        std::size_t tier = 0;
        std::uint64_t tokens = 0;     //!< valid tokens in the block
        std::uint64_t last_touch = 0; //!< manager clock of last access
    };
    struct RequestState
    {
        std::uint64_t tokens = 0;
        std::vector<BlockState> blocks;
    };

    KvCacheManager(KvCacheConfig config, Bytes token_layer_bytes,
                   std::uint64_t mha_layers);

    bool tier_fits_block(std::size_t tier) const;
    /** Place a fresh block; may demote a victim.  Returns tier index. */
    Result<std::size_t> allocate_block(StepTraffic *traffic);
    /** Pick the eviction victim on @p tier; false if none. */
    bool pick_victim(std::size_t tier, std::uint64_t *request_id,
                     std::size_t *block_index) const;
    void account_occupancy(std::size_t tier, std::int64_t blocks_delta);

    KvCacheConfig config_;
    Bytes token_layer_bytes_ = 0; //!< K+V bytes per token per MHA layer
    std::uint64_t mha_layers_ = 0;
    Bytes block_bytes_ = 0;       //!< whole-model bytes per block
    std::map<std::uint64_t, RequestState> requests_;
    std::uint64_t clock_ = 0;
    KvCacheStats stats_;
};

} // namespace helm::kvcache

#endif // HELM_KVCACHE_KVCACHE_H
