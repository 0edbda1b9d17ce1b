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
 * run_cluster_batch() is the one place a cluster batch is compiled,
 * placed on a fabric, run and measured: run_saturated() and
 * ClusterServer's sharded launches call it, and ClusterServer's
 * replica loop sizes its fabric through the same compile_cluster().
 * Replica jobs (one GPU each) and tensor shards (N GPUs in lockstep)
 * run on the same runtime::Executor as simulate_inference().  A tensor
 * batch tries the executor's closed form first — it takes every batch
 * whose only flows are weight loads on the links and the shared read
 * port — and runs on the DES when that declines (KV or disk traffic,
 * near-data layers on more than one GPU); ClusterBatch::closed_form
 * says which timed it.  Replica and pipeline batches always run on the
 * DES.  Only
 * pipeline parallelism has its own executor, which reads each stage's
 * compiled steps in place: its per-token micro-batch state machine
 * hands activations between stages, loads a whole token's layers at
 * once, and retires a token on its chunks and writebacks alone, where
 * the zig-zag loop loads one layer per step and makes step k wait for
 * step k+1's load.
 */
#ifndef HELM_CLUSTER_CLUSTER_ENGINE_H
#define HELM_CLUSTER_CLUSTER_ENGINE_H

#include <cstdint>
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

/** Shard options for every GPU under @p spec's parallelism. */
Result<std::vector<runtime::ShardOptions>> shard_plan(const ClusterSpec &spec);

/** A cluster batch compiled for its fabric: one schedule per GPU
 *  (replicas share a single full-model entry) and the fabric rates
 *  compute_port_rates() sizes for their cluster-wide working set. */
struct CompiledCluster
{
    std::vector<runtime::CompiledSchedule> shards;
    runtime::FabricRates rates;
};

/** Compile @p serving along @p spec's shard plan and size its fabric. */
Result<CompiledCluster> compile_cluster(const ClusterSpec &spec,
                                        const runtime::ServingSpec &serving);

/** One cluster batch as it ran; stats are over the makespan, with
 *  `batches` and `requests` left to the caller. */
struct ClusterBatch
{
    /** Replica mode: one timeline per GPU; tensor/pipeline: one. */
    std::vector<runtime::BatchTimeline> timelines;
    Seconds makespan = 0.0;         //!< longest timeline
    std::uint64_t total_tokens = 0; //!< generated, all timelines
    std::vector<GpuUtilization> gpus;
    std::vector<PortStats> ports;
    /** Water-fill passes of the fabric's links and ports: the run's
     *  channel work, an exact count. */
    std::uint64_t fill_passes = 0;
    /** The executor's closed form timed the batch, not the DES. */
    bool closed_form = false;
};

/**
 * Run one batch of @p serving, compiled by compile_cluster(), to
 * completion on a fresh fabric.  Replica: every GPU runs a full copy on
 * the runtime executor.  Tensor: the shards advance in lockstep on the
 * runtime executor — all GPUs load step k+1's slices concurrently
 * (hammering the shared read port), compute step k, and barrier.
 * Pipeline: stage s runs on GPU s; per (rep, token) a stage streams its
 * layer weights once (prefetched during the previous token), computes
 * micro_batches chunks, and hands each chunk's activations to the next
 * stage through the host ports (d2h then h2d).  Token t+1 enters stage
 * 0 when token t leaves the last stage (autoregressive feedback).
 */
Result<ClusterBatch> run_cluster_batch(const ClusterSpec &spec,
                                       const runtime::ServingSpec &serving,
                                       bool keep_records);

/** Per-GPU busy time / link bytes, utilization over @p makespan
 *  (`batches` and `requests` are left to the caller). */
std::vector<GpuUtilization> gpu_stats(const runtime::Fabric &fabric,
                                      Seconds makespan);
/** Shared-port traffic, utilization over @p makespan. */
std::vector<PortStats> port_stats(const runtime::Fabric &fabric,
                                  Seconds makespan);

/**
 * Closed-loop saturation run: run_cluster_batch() on `spec.serving`.
 * Replica mode runs `serving.repeats` back-to-back full batches on
 * every GPU; tensor/pipeline run the sharded batch once with
 * `serving.repeats` repeats.  This is the regime where the shared read
 * port either binds (NVDRAM) or does not (DRAM) — bench/abl_cluster
 * sweeps it.
 */
Result<SaturationResult> run_saturated(const ClusterSpec &spec,
                                       bool keep_records = false);

} // namespace helm::cluster

#endif // HELM_CLUSTER_CLUSTER_ENGINE_H
