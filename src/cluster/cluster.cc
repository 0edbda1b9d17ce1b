#include "cluster/cluster.h"

#include <algorithm>

#include "common/args.h"

namespace helm::cluster {

const char *
parallelism_name(Parallelism mode)
{
    switch (mode) {
      case Parallelism::kReplica: return "replica";
      case Parallelism::kPipeline: return "pipeline";
      case Parallelism::kTensor: return "tensor";
    }
    return "?";
}

const char *
router_policy_name(RouterPolicy policy)
{
    switch (policy) {
      case RouterPolicy::kRoundRobin: return "rr";
      case RouterPolicy::kJoinShortestQueue: return "jsq";
      case RouterPolicy::kPowerOfTwo: return "po2";
    }
    return "?";
}

Result<Parallelism>
parse_parallelism(const std::string &text)
{
    if (iequals(text, "replica") || iequals(text, "data"))
        return Parallelism::kReplica;
    if (iequals(text, "pipeline") || iequals(text, "pp"))
        return Parallelism::kPipeline;
    if (iequals(text, "tensor") || iequals(text, "tp"))
        return Parallelism::kTensor;
    return Status::invalid_argument(
        "unknown parallelism '" + text +
        "' (expected replica, pipeline, or tensor)");
}

Result<RouterPolicy>
parse_router_policy(const std::string &text)
{
    if (iequals(text, "rr") || iequals(text, "round-robin"))
        return RouterPolicy::kRoundRobin;
    if (iequals(text, "jsq") || iequals(text, "shortest-queue"))
        return RouterPolicy::kJoinShortestQueue;
    if (iequals(text, "po2") || iequals(text, "power-of-two"))
        return RouterPolicy::kPowerOfTwo;
    return Status::invalid_argument("unknown router policy '" + text +
                                    "' (expected rr, jsq, or po2)");
}

Status
ClusterSpec::validate() const
{
    if (gpus < 1 || gpus > 64)
        return Status::invalid_argument("gpus must be in [1, 64]");
    if (sockets < 1)
        return Status::invalid_argument("sockets must be >= 1");
    HELM_RETURN_IF_ERROR(config.validate());
    if (config.scheduler != runtime::SchedulerKind::kFcfs &&
        (gpus > 1 || parallelism != Parallelism::kReplica)) {
        return Status::invalid_argument(
            std::string("the ") +
            runtime::scheduler_kind_name(config.scheduler) +
            " scheduler needs the single-GPU serving path; the "
            "cluster's multi-GPU modes batch whole requests "
            "(--scheduler requires --gpus 1 with replica "
            "parallelism)");
    }
    if (parallelism == Parallelism::kPipeline) {
        const std::uint64_t layers = serving.model.num_layers();
        if (gpus > layers) {
            return Status::invalid_argument(
                "pipeline parallelism needs at least one layer per "
                "stage: " + std::to_string(gpus) + " stages > " +
                std::to_string(layers) + " layers");
        }
        if (serving.compute_site != placement::ComputeSiteMode::kGpuOnly) {
            return Status::invalid_argument(
                std::string("compute site '") +
                placement::compute_site_mode_name(serving.compute_site) +
                "' conflicts with pipeline parallelism: its per-token "
                "work units run every layer on the GPU (use replica or "
                "tensor parallelism)");
        }
    }
    // The per-GPU template must be sound.  Sharded modes skip the
    // full-model capacity floor — fitting only when sharded is the
    // point — and the shard compiler re-checks capacity per GPU.
    runtime::ServingSpec base = serving;
    if (parallelism != Parallelism::kReplica || gpus > 1)
        base.enforce_gpu_capacity =
            parallelism == Parallelism::kReplica &&
            serving.enforce_gpu_capacity;
    return base.validate();
}

Result<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
partition_layers(const std::vector<model::LayerSpec> &layers,
                 std::uint64_t stages)
{
    const std::uint64_t n = layers.size();
    if (stages < 1 || stages > n) {
        return Status::invalid_argument(
            "cannot cut " + std::to_string(n) + " layers into " +
            std::to_string(stages) + " stages");
    }
    Bytes total = 0;
    for (const auto &layer : layers)
        total += layer.weight_bytes();

    // Greedy fill: close a stage once it reaches the remaining mean,
    // always leaving enough layers for the remaining stages.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    std::uint64_t begin = 0;
    Bytes remaining = total;
    for (std::uint64_t s = 0; s < stages; ++s) {
        const std::uint64_t stages_left = stages - s;
        const Bytes target = remaining / stages_left;
        std::uint64_t end = begin;
        Bytes acc = 0;
        while (end < n) {
            // Must leave one layer per remaining stage.
            if (n - (end + 1) < stages_left - 1)
                break;
            acc += layers[end].weight_bytes();
            ++end;
            if (s + 1 < stages && acc >= target)
                break;
        }
        if (s + 1 == stages)
            end = n;
        ranges.emplace_back(begin, end);
        remaining -= acc;
        begin = end;
    }
    return ranges;
}

} // namespace helm::cluster
