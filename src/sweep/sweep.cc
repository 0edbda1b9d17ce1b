#include "sweep/sweep.h"

#include <algorithm>

#include "common/args.h"
#include "common/csv.h"
#include "exec/parallel.h"
#include "mem/registry.h"
#include "model/zoo.h"

namespace helm::sweep {

Status
SweepRunner::add_dimension(const std::string &name,
                           std::vector<std::string> values)
{
    if (name.empty())
        return Status::invalid_argument("dimension needs a name");
    if (values.empty()) {
        return Status::invalid_argument("dimension '" + name +
                                        "' needs at least one value");
    }
    for (const auto &dim : dimensions_) {
        if (dim.name == name) {
            return Status::invalid_argument("duplicate dimension '" +
                                            name + "'");
        }
    }
    dimensions_.push_back(Dimension{name, std::move(values)});
    return Status::ok();
}

std::size_t
SweepRunner::point_count() const
{
    std::size_t count = 1;
    for (const auto &dim : dimensions_)
        count *= dim.values.size();
    return dimensions_.empty() ? 0 : count;
}

std::vector<Row>
SweepRunner::enumerate_points() const
{
    std::vector<Row> points;
    if (dimensions_.empty())
        return points;
    points.reserve(point_count());

    std::vector<std::size_t> index(dimensions_.size(), 0);
    while (true) {
        Row point;
        for (std::size_t d = 0; d < dimensions_.size(); ++d)
            point[dimensions_[d].name] = dimensions_[d].values[index[d]];
        points.push_back(std::move(point));

        // Odometer increment, last dimension fastest.
        std::size_t d = dimensions_.size();
        while (d > 0) {
            --d;
            if (++index[d] < dimensions_[d].values.size())
                break;
            index[d] = 0;
            if (d == 0)
                return points;
        }
    }
}

Dataset
SweepRunner::run(const PointFn &fn, const SweepOptions &options) const
{
    HELM_ASSERT(static_cast<bool>(fn), "sweep needs a point function");
    Dataset dataset;
    const std::vector<Row> points = enumerate_points();
    if (points.empty())
        return dataset;

    // Each point writes its own slot; assembling the Dataset in
    // enumeration order afterwards keeps the output bit-for-bit
    // identical to the sequential run at any jobs value.
    std::vector<Row> rows(points.size());
    exec::parallel_for(
        points.size(), options.jobs, [&](std::size_t i) {
            Row row = points[i];
            auto outcome = fn(points[i]);
            if (outcome.is_ok()) {
                for (auto &[name, value] : *outcome)
                    row[name] = value;
            } else {
                row["error"] = outcome.status().to_string();
            }
            rows[i] = std::move(row);
        });
    for (Row &row : rows)
        dataset.add_row(std::move(row));
    return dataset;
}

SimPoint
simulate_point(const runtime::ServingSpec &spec)
{
    runtime::ServingSpec no_records = spec;
    no_records.keep_records = false;
    SimPoint point;
    auto result = runtime::simulate_inference(no_records);
    if (!result.is_ok()) {
        point.status = result.status();
        return point;
    }
    point.metrics = result->metrics;
    point.gpu_used = result->budget.used();
    point.host_bytes = result->placement.tier_total(placement::Tier::kCpu);
    point.disk_bytes = result->placement.tier_total(placement::Tier::kDisk);
    point.ndp_steps = result->ndp_steps;
    return point;
}

std::vector<SimPoint>
evaluate(const std::vector<runtime::ServingSpec> &specs, std::size_t jobs)
{
    return exec::parallel_map<SimPoint>(
        specs.size(), jobs,
        [&specs](std::size_t i) { return simulate_point(specs[i]); });
}

Status
ServingSweep::add_dimension(const std::string &name,
                            std::vector<std::string> values)
{
    static const std::vector<std::string> known{
        "model",         "memory",        "placement",
        "batch",         "micro_batches", "kv_offload",
        "compress",      "prompt_tokens", "output_tokens",
        "compute_site"};
    if (std::find(known.begin(), known.end(), name) == known.end()) {
        return Status::invalid_argument(
            "unknown sweep dimension '" + name +
            "' (model, memory, placement, batch, micro_batches, "
            "kv_offload, compress, prompt_tokens, output_tokens, "
            "compute_site)");
    }
    return runner_.add_dimension(name, std::move(values));
}

namespace {

/** Apply one recognized dimension value to a spec. */
Status
apply(runtime::ServingSpec &spec, const std::string &name,
      const std::string &value)
{
    auto as_u64 = [&](std::uint64_t &out) -> Status {
        const auto parsed = parse_count(value);
        if (!parsed.is_ok() || *parsed == 0) {
            return Status::invalid_argument("bad value '" + value +
                                            "' for " + name);
        }
        out = *parsed;
        return Status::ok();
    };

    if (name == "model") {
        HELM_ASSIGN_OR_RETURN(spec.model, model::find_model(value));
        return Status::ok();
    }
    if (name == "memory") {
        const mem::RegisteredDevice *entry = mem::find_device(value);
        if (entry == nullptr) {
            return Status::not_found("unknown memory config: " + value +
                                     " (run `helmsim devices`)");
        }
        spec.memory = entry->name;
        return Status::ok();
    }
    if (name == "placement") {
        HELM_ASSIGN_OR_RETURN(spec.placement,
                              placement::parse_placement_kind(value));
        return Status::ok();
    }
    if (name == "batch")
        return as_u64(spec.batch);
    if (name == "micro_batches")
        return as_u64(spec.micro_batches);
    if (name == "prompt_tokens")
        return as_u64(spec.shape.prompt_tokens);
    if (name == "output_tokens")
        return as_u64(spec.shape.output_tokens);
    if (name == "compute_site") {
        HELM_ASSIGN_OR_RETURN(spec.compute_site,
                              placement::parse_compute_site_mode(value));
        return Status::ok();
    }
    if (name == "kv_offload") {
        if (value == "1" || value == "true")
            spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
        return Status::ok();
    }
    if (name == "compress") {
        spec.compress_weights = value == "1" || value == "true";
        return Status::ok();
    }
    return Status::invalid_argument("unknown dimension " + name);
}

} // namespace

Dataset
ServingSweep::run(const SweepOptions &options) const
{
    // A point whose values do not apply keeps the Status in its error
    // column; the rest are simulated in one fan-out.
    const auto spec_of =
        [this](const Row &point) -> Result<runtime::ServingSpec> {
        runtime::ServingSpec spec = base_;
        for (const auto &[name, value] : point)
            HELM_RETURN_IF_ERROR(apply(spec, name, value));
        return spec;
    };
    std::vector<Row> rows = runner_.enumerate_points();
    std::vector<runtime::ServingSpec> specs;
    std::vector<std::size_t> spec_rows;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        auto spec = spec_of(rows[i]);
        if (!spec.is_ok()) {
            rows[i]["error"] = spec.status().to_string();
            continue;
        }
        specs.push_back(std::move(*spec));
        spec_rows.push_back(i);
    }
    const std::vector<SimPoint> sims = evaluate(specs, options.jobs);
    for (std::size_t k = 0; k < sims.size(); ++k) {
        const SimPoint &sim = sims[k];
        Row &row = rows[spec_rows[k]];
        if (!sim.is_ok()) {
            row["error"] = sim.status.to_string();
            continue;
        }
        row["ttft_ms"] = format_fixed(sim.metrics.ttft * 1e3, 3);
        row["tbt_ms"] = format_fixed(sim.metrics.tbt * 1e3, 3);
        row["tokens_per_s"] = format_fixed(sim.metrics.throughput, 4);
        row["gpu_used_bytes"] = std::to_string(sim.gpu_used);
    }
    Dataset dataset;
    for (Row &row : rows)
        dataset.add_row(std::move(row));
    return dataset;
}

} // namespace helm::sweep
