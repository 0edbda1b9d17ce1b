#include "sweep/sweep.h"

#include <algorithm>
#include <mutex>

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
    std::mutex progress_mutex;
    std::size_t done = 0;
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
            if (options.progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                options.progress(++done, points.size());
            }
        });
    for (Row &row : rows)
        dataset.add_row(std::move(row));
    return dataset;
}

bool
ServingSweep::is_recognized(const std::string &name)
{
    static const std::vector<std::string> known{
        "model",         "memory",        "placement",
        "batch",         "micro_batches", "kv_offload",
        "compress",      "prompt_tokens", "output_tokens",
        "compute_site"};
    return std::find(known.begin(), known.end(), name) != known.end();
}

Status
ServingSweep::add_dimension(const std::string &name,
                            std::vector<std::string> values)
{
    if (!is_recognized(name)) {
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
    return runner_.run(
        [this](const Row &point) -> Result<Row> {
            runtime::ServingSpec spec = base_;
            spec.keep_records = false;
            for (const auto &[name, value] : point)
                HELM_RETURN_IF_ERROR(apply(spec, name, value));
            const runtime::SimPoint sim = runtime::simulate_point(spec);
            if (!sim.is_ok())
                return sim.status;
            Row metrics;
            metrics["ttft_ms"] = format_fixed(sim.metrics.ttft * 1e3, 3);
            metrics["tbt_ms"] = format_fixed(sim.metrics.tbt * 1e3, 3);
            metrics["tokens_per_s"] =
                format_fixed(sim.metrics.throughput, 4);
            metrics["gpu_used_bytes"] = std::to_string(sim.gpu_used);
            return metrics;
        },
        options);
}

} // namespace helm::sweep
