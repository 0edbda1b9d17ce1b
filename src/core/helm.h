/**
 * @file
 * Umbrella header: the public API of helm-sim.
 *
 * Downstream users include this single header and link the `helm`
 * CMake target.  The library reproduces "Improving the Performance of
 * Out-of-Core LLM Inference Using Heterogeneous Host Memory"
 * (IISWC 2025): calibrated heterogeneous-memory device models, a
 * FlexGen-compatible out-of-core inference runtime on a discrete-event
 * kernel, and the paper's three weight placement schemes (Baseline,
 * HeLM, All-CPU).
 *
 * Typical use:
 * @code
 *   helm::runtime::ServingSpec spec;
 *   spec.model = helm::model::opt_config(helm::model::OptVariant::kOpt175B);
 *   spec.memory = helm::mem::ConfigKind::kNvdram;
 *   spec.placement = helm::placement::PlacementKind::kHelm;
 *   spec.compress_weights = true;
 *   auto result = helm::runtime::simulate_inference(spec);
 *   if (result)
 *       std::cout << result->metrics.tbt << "\n";
 * @endcode
 */
#ifndef HELM_CORE_HELM_H
#define HELM_CORE_HELM_H

#include "cluster/cluster.h"
#include "cluster/cluster_engine.h"
#include "cluster/cluster_server.h"
#include "cluster/router.h"
#include "common/args.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/summary.h"
#include "common/table.h"
#include "common/units.h"
#include "core/version.h"
#include "energy/energy_model.h"
#include "exec/parallel.h"
#include "gpu/compute_model.h"
#include "gpu/gpu.h"
#include "kvcache/kvcache.h"
#include "mem/bandwidth_curve.h"
#include "mem/calibration.h"
#include "mem/device.h"
#include "mem/host_system.h"
#include "mem/pcie.h"
#include "mem/registry.h"
#include "membench/membench.h"
#include "model/dtype.h"
#include "model/footprint.h"
#include "model/llama.h"
#include "model/opt.h"
#include "model/zoo.h"
#include "model/transformer.h"
#include "model/weight.h"
#include "placement/baseline.h"
#include "placement/balanced.h"
#include "placement/capacity.h"
#include "placement/helm_placement.h"
#include "placement/ndp_aware.h"
#include "placement/placement.h"
#include "placement/policy.h"
#include "runtime/engine.h"
#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "runtime/planner.h"
#include "runtime/scheduler.h"
#include "runtime/trace.h"
#include "serving_gateway/admission.h"
#include "serving_gateway/driver.h"
#include "serving_gateway/gateway.h"
#include "serving_gateway/instrument.h"
#include "serving_gateway/router.h"
#include "serving_gateway/session.h"
#include "serving_gateway/streaming.h"
#include "sim/bandwidth_channel.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sweep/cost_model.h"
#include "sweep/dataset.h"
#include "sweep/pareto.h"
#include "sweep/sweep.h"
#include "sweep/tuner.h"
#include "workload/arrival.h"
#include "workload/workload.h"

#endif // HELM_CORE_HELM_H
