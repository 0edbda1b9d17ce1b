/**
 * @file
 * Cluster execution on the shared host fabric.
 *
 * A cluster run is one runtime::Fabric whose GPUs share the host
 * memory's read and write ports (and the storage read port when the
 * configuration has one).  Every host->GPU transfer occupies the GPU's
 * own PCIe link and the shared port, completing when the slower of the
 * two delivers its last byte.  With one GPU the port never binds (its
 * pooled rate is at least the single-stream device rate every per-flow
 * cap is derived from), so timings degenerate to the single-GPU
 * engine's; with N GPUs the port water-fills across GPUs and Optane's
 * read ceiling emerges cluster-wide.
 *
 * Replica jobs (one GPU each) and tensor shards (N GPUs in lockstep)
 * run on the same runtime::Executor as simulate_inference().  Only
 * pipeline parallelism has its own executor here: its per-token
 * micro-batch state machine hands activations between stages, which
 * is a different algorithm from the zig-zag loop.
 */
#ifndef HELM_CLUSTER_CLUSTER_ENGINE_H
#define HELM_CLUSTER_CLUSTER_ENGINE_H

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "runtime/executor.h"
#include "runtime/schedule.h"

namespace helm::cluster {

/**
 * Fabric rates for a cluster built from a compiled shard.  Per-GPU
 * links replicate the single-GPU engine's sizing; the shared ports run
 * at the host device's streaming rate for the cluster-wide resident
 * working set, pooled over @p sockets (CXL expanders are one device —
 * no pooling).
 */
runtime::FabricRates compute_port_rates(
    const runtime::CompiledSchedule &shard, std::uint64_t sockets,
    Bytes cluster_resident_bytes);

/** Cluster-wide host working set of @p gpus GPUs under @p mode:
 *  replicas all run shards.front() and share its one read-only weight
 *  copy, each with a private KV overflow; tensor/pipeline shards are
 *  disjoint and sum. */
Bytes cluster_resident_bytes(
    std::span<const runtime::CompiledSchedule> shards, Parallelism mode,
    std::uint64_t gpus);

/** Shard options for every GPU under @p spec's parallelism. */
Result<std::vector<runtime::ShardOptions>> shard_plan(const ClusterSpec &spec);

/** Compile @p serving once per entry of @p plan. */
Result<std::vector<runtime::CompiledSchedule>>
compile_shards(const runtime::ServingSpec &serving,
               const std::vector<runtime::ShardOptions> &plan);

/**
 * Run one sharded batch to completion on @p fabric (one GPU per shard).
 * Tensor: the shards advance in lockstep on the runtime executor — all
 * GPUs load step k+1's slices concurrently (hammering the shared read
 * port), compute step k, and barrier.  Pipeline: stage s runs on GPU s;
 * per (rep, token) a stage streams its layer weights once (prefetched
 * during the previous token), computes micro_batches chunks, and hands
 * each chunk's activations to the next stage through the host ports
 * (d2h then h2d).  Token t+1 enters stage 0 when token t leaves the
 * last stage (autoregressive feedback).
 */
Result<runtime::BatchTimeline>
run_shards(runtime::Fabric &fabric,
           const std::vector<runtime::CompiledSchedule> &shards,
           Parallelism mode, std::uint64_t micro_batches,
           const runtime::ServingSpec &base, bool keep_records);

/** Per-GPU busy time / link bytes, utilization over @p makespan
 *  (`batches` and `requests` are left to the caller). */
std::vector<GpuUtilization> gpu_stats(const runtime::Fabric &fabric,
                                      Seconds makespan);
/** Shared-port traffic, utilization over @p makespan. */
std::vector<PortStats> port_stats(const runtime::Fabric &fabric,
                                  Seconds makespan);

/**
 * Closed-loop saturation run: replica mode runs `serving.repeats`
 * back-to-back full batches on every GPU; tensor/pipeline run the
 * sharded batch once with `serving.repeats` repeats.  This is the
 * regime where the shared read port either binds (NVDRAM) or does not
 * (DRAM) — bench/abl_cluster sweeps it.
 */
Result<SaturationResult> run_saturated(const ClusterSpec &spec,
                                       bool keep_records = false);

} // namespace helm::cluster

#endif // HELM_CLUSTER_CLUSTER_ENGINE_H
