#include "sweep/tuner.h"

#include <algorithm>
#include <cstdio>

#include "common/args.h"
#include "mem/registry.h"

namespace helm::sweep {

const char *
tune_objective_name(TuneObjective objective)
{
    return objective == TuneObjective::kLatency ? "latency"
                                                : "throughput";
}

Result<TuneObjective>
parse_tune_objective(const std::string &name)
{
    for (auto objective :
         {TuneObjective::kLatency, TuneObjective::kThroughput}) {
        if (iequals(name, tune_objective_name(objective)))
            return objective;
    }
    return Status::invalid_argument("unknown tune objective '" + name +
                                    "' (--objective takes latency | "
                                    "throughput)");
}

std::string
TuneCandidate::describe() const
{
    char buf[160];
    std::snprintf(
        buf, sizeof(buf), "%s b=%llu mb=%llu%s%s%s",
        placement::placement_kind_name(spec.placement),
        static_cast<unsigned long long>(spec.batch),
        static_cast<unsigned long long>(spec.micro_batches),
        spec.kv_cache.has_value() ? " kv-offload" : "",
        spec.helm_splits.has_value() ? " custom-split" : "",
        spec.compute_site != placement::ComputeSiteMode::kGpuOnly
            ? " ndp-auto"
            : "");
    return buf;
}

namespace {

/** Batch ladder up to (and including) the feasibility edge. */
std::vector<std::uint64_t>
batch_ladder(std::uint64_t max_feasible, std::uint64_t limit)
{
    std::vector<std::uint64_t> ladder;
    const std::uint64_t cap = std::min(max_feasible, limit);
    for (std::uint64_t b = 1; b < cap; b *= 2)
        ladder.push_back(b);
    if (cap >= 1)
        ladder.push_back(cap);
    return ladder;
}

bool
better(const TuneCandidate &a, const TuneCandidate &b,
       TuneObjective objective)
{
    if (objective == TuneObjective::kLatency)
        return a.metrics.tbt < b.metrics.tbt;
    return a.metrics.throughput > b.metrics.throughput;
}

} // namespace

Result<TuneGrid>
tune_grid(const TuneRequest &request)
{
    if (request.model.hidden == 0 || request.model.blocks == 0)
        return Status::invalid_argument("model config is incomplete");
    if (request.batch_limit < 1)
        return Status::invalid_argument("batch_limit must be >= 1");

    // Compute-site candidates: GPU always; near-data decode when the
    // requested host carries NDP units.
    const auto system = mem::make_system(request.memory);
    if (!system.is_ok())
        return system.status();
    std::vector<placement::ComputeSiteMode> site_options{
        placement::ComputeSiteMode::kGpuOnly};
    if (system->host()->kind() == mem::MemoryKind::kNdpDimm)
        site_options.push_back(placement::ComputeSiteMode::kNdpAuto);

    const runtime::StagingSizes staging = model::build_layers(
        request.model, request.compress_weights
                           ? model::DataType::kInt4Grouped
                           : model::DataType::kFp16);

    struct SchemePoint
    {
        placement::PlacementKind kind;
        std::optional<placement::HelmSplits> splits;
    };
    std::vector<SchemePoint> schemes{
        {placement::PlacementKind::kBaseline, std::nullopt},
        {placement::PlacementKind::kHelm, std::nullopt},
        {placement::PlacementKind::kAllCpu, std::nullopt},
        {placement::PlacementKind::kBalanced, std::nullopt},
    };
    // HeLM split-point refinements around the paper's (30, 10).
    for (double ffn_pct : {20.0, 40.0, 50.0}) {
        placement::HelmSplits splits;
        splits.ffn = {ffn_pct, 100.0 - ffn_pct, 0.0};
        schemes.push_back(
            SchemePoint{placement::PlacementKind::kHelm, splits});
    }

    std::vector<bool> kv_options{false};
    if (request.explore_kv_offload)
        kv_options.push_back(true);

    // The feasibility math is analytic and cheap; the simulations are
    // the caller's, over the finished list.
    TuneGrid grid;
    for (const auto &scheme : schemes) {
        for (bool kv_offload : kv_options) {
            // Feasibility ceiling assumes weights can spill to the host
            // (the engine's capacity enforcement does exactly that), so
            // the KV cache alone bounds the request count.  The
            // scheme's own GPU share then shrinks gracefully at large
            // batches instead of being rejected outright.
            const std::uint64_t max_requests = runtime::max_batch(
                request.gpu, request.model, staging, /*gpu_weights=*/0,
                request.shape, request.compress_weights,
                request.batch_limit, !kv_offload);
            if (max_requests == 0) {
                ++grid.infeasible;
                continue;
            }
            for (std::uint64_t micro : {1u, 2u, 4u}) {
                for (std::uint64_t batch :
                     batch_ladder(max_requests / micro,
                                  request.batch_limit)) {
                    if (batch == 0)
                        continue;
                    for (auto site : site_options) {
                        runtime::ServingSpec spec;
                        spec.model = request.model;
                        spec.memory = request.memory;
                        spec.compute_site = site;
                        spec.placement = scheme.kind;
                        spec.helm_splits = scheme.splits;
                        spec.compress_weights =
                            request.compress_weights;
                        spec.batch = batch;
                        spec.micro_batches = micro;
                        if (kv_offload) {
                            spec.kv_cache =
                                kvcache::KvCacheConfig::legacy_offload();
                        }
                        spec.shape = request.shape;
                        spec.repeats = 2;
                        spec.gpu = request.gpu;
                        grid.candidates.push_back(std::move(spec));
                    }
                }
            }
        }
    }
    return grid;
}

Result<TuneResult>
best_of(const TuneRequest &request, const TuneGrid &grid,
        const std::vector<SimPoint> &points)
{
    HELM_ASSERT(points.size() == grid.candidates.size(),
                "one evaluated point per candidate");
    TuneResult result;
    result.infeasible = grid.infeasible;
    bool have_best = false;
    for (std::size_t i = 0; i < grid.candidates.size(); ++i) {
        if (!points[i].is_ok()) {
            ++result.infeasible;
            continue;
        }
        TuneCandidate candidate;
        candidate.spec = grid.candidates[i];
        candidate.metrics = points[i].metrics;
        candidate.meets_qos = !request.tbt_ceiling.has_value() ||
                              points[i].metrics.tbt <=
                                  *request.tbt_ceiling;
        result.explored.push_back(candidate);
        if (!candidate.meets_qos)
            continue;
        if (!have_best ||
            better(candidate, result.best, request.objective)) {
            result.best = candidate;
            have_best = true;
        }
    }

    if (!have_best) {
        return Status::not_found(
            "no candidate satisfies the QoS constraint");
    }
    // Most-preferred-first ordering for reporting.
    std::sort(result.explored.begin(), result.explored.end(),
              [&](const TuneCandidate &a, const TuneCandidate &b) {
                  return better(a, b, request.objective);
              });
    return result;
}

Result<TuneResult>
auto_tune(const TuneRequest &request)
{
    HELM_ASSIGN_OR_RETURN(const TuneGrid grid, tune_grid(request));
    return best_of(request, grid, evaluate(grid.candidates, request.jobs));
}

} // namespace helm::sweep
