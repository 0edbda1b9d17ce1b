#include "sweep/pareto.h"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "common/csv.h"
#include "common/table.h"
#include "common/units.h"
#include "mem/calibration.h"
#include "mem/registry.h"
#include "placement/ndp_aware.h"
#include "placement/placement.h"
#include "sweep/sweep.h"

namespace helm::sweep {

namespace {

/** Weight capacity the named device's composed system offers. */
Bytes
weight_capacity(const mem::RegisteredDevice &entry)
{
    Bytes capacity = entry.make()->capacity();
    if (entry.storage_tier()) // a DRAM host tier sits in front (Table II)
        capacity += mem::make_dram()->capacity();
    return capacity;
}

/** One evaluated spec of the grid, priced and checked for capacity. */
ParetoPoint
price(const ExploreOptions &options, const runtime::ServingSpec &spec,
      const SimPoint &sim)
{
    ParetoPoint out;
    out.device = spec.memory.name();
    out.placement = placement::placement_kind_name(spec.placement);
    out.site = placement::compute_site_mode_name(spec.compute_site);
    out.batch = spec.batch;
    if (!sim.is_ok())
        return out;
    out.ok = true;
    out.ttft = sim.metrics.ttft;
    out.tbt = sim.metrics.tbt;
    out.throughput = sim.metrics.throughput;
    out.ndp_steps = sim.ndp_steps;

    const mem::RegisteredDevice *entry = mem::find_device(out.device);
    HELM_ASSERT(entry != nullptr, "grid devices come from the table");
    // The engine allows "ideal" over-capacity runs (all-CPU DRAM,
    // Sec. V-C); a purchasable box must actually hold its share.
    const mem::DevicePtr device = entry->make();
    if (device->needs_bounce_buffer()) {
        out.feasible = sim.host_bytes <= mem::make_dram()->capacity() &&
                       sim.disk_bytes <= device->capacity();
    } else {
        out.feasible = sim.disk_bytes == 0 &&
                       sim.host_bytes <= device->capacity();
    }

    auto system = mem::make_system(spec.memory, spec.pcie);
    HELM_ASSERT(system.is_ok(), "table devices must compose");
    out.system_dollars = options.cost.system_dollars(*system);
    out.cost_per_token = options.cost.cost_per_token(
        out.system_dollars, out.throughput);
    return out;
}

/** Mark the non-dominated (cost_per_token, tbt) points in place. */
std::size_t
mark_frontier(std::vector<ParetoPoint> &points)
{
    std::size_t size = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        ParetoPoint &p = points[i];
        p.on_frontier = false;
        if (!p.ok || !p.feasible)
            continue;
        bool dominated = false;
        for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
            if (j == i)
                continue;
            const ParetoPoint &q = points[j];
            if (!q.ok || !q.feasible)
                continue;
            dominated = q.cost_per_token <= p.cost_per_token &&
                        q.tbt <= p.tbt &&
                        (q.cost_per_token < p.cost_per_token ||
                         q.tbt < p.tbt);
        }
        p.on_frontier = !dominated;
        if (p.on_frontier)
            ++size;
    }
    return size;
}

/** A ~1.9 TB fp16 transformer: bigger than every paper tier (DRAM 256
 *  GiB ... DRAM+SSD 1.25 TiB) yet comfortably inside HBF's 10 TiB. */
model::TransformerConfig
giant_model()
{
    model::TransformerConfig config;
    config.name = "Synthetic-1T";
    config.hidden = 20480;
    config.ffn_hidden = 4 * config.hidden;
    config.heads = 160;
    config.blocks = 192;
    return config;
}

HbfExclusive
run_hbf_exclusive(const ExploreOptions &options)
{
    HbfExclusive hbf;
    const model::TransformerConfig config = giant_model();
    hbf.model = config.name;
    const auto layers =
        model::build_layers(config, model::DataType::kFp16);
    hbf.weight_bytes = model::model_weight_bytes(layers);

    for (const mem::RegisteredDevice &entry : mem::device_table()) {
        ++hbf.devices;
        if (hbf.weight_bytes <= weight_capacity(entry)) {
            ++hbf.admitting;
            hbf.only_hbf = hbf.admitting == 1 &&
                           std::string_view(entry.name) == "HBF";
        }
    }

    runtime::ServingSpec spec;
    spec.model = config;
    spec.memory = "HBF";
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.batch = 1;
    spec.repeats = 2;
    spec.gpu = options.gpu;
    const SimPoint sim = simulate_point(spec);
    if (!sim.is_ok())
        return hbf;
    hbf.ran = true;
    hbf.tbt = sim.metrics.tbt;
    hbf.throughput = sim.metrics.throughput;

    // Endurance: landing the weights is one full program of the flash;
    // the byte budget bounds how many times the box can be re-imaged.
    hbf.endurance_budget = mem::make_hbf()->endurance_budget();
    hbf.installs_supported =
        hbf.weight_bytes == 0 ? 0
                              : hbf.endurance_budget / hbf.weight_bytes;
    return hbf;
}

/** DRAM vs NDP-DIMM All-CPU comparison, largest batch both completed. */
NdpComparison
compare_ndp(const std::vector<ParetoPoint> &points)
{
    NdpComparison cmp;
    for (const ParetoPoint &dram : points) {
        if (dram.device != "DRAM" || dram.placement != "All-CPU" ||
            !dram.ok)
            continue;
        for (const ParetoPoint &ndp : points) {
            if (ndp.device != "NDP-DIMM" || ndp.placement != "All-CPU" ||
                ndp.site != "auto" || ndp.batch != dram.batch || !ndp.ok)
                continue;
            if (cmp.valid && dram.batch <= cmp.batch)
                continue;
            cmp.valid = true;
            cmp.batch = dram.batch;
            cmp.dram_tbt = dram.tbt;
            cmp.ndp_tbt = ndp.tbt;
            cmp.ndp_dominates = ndp.tbt < dram.tbt;
        }
    }
    return cmp;
}

} // namespace

Result<ParetoReport>
explore(const ExploreOptions &options)
{
    if (options.batches.empty())
        return Status::invalid_argument("batch list must be non-empty");
    if (options.model.hidden == 0 || options.model.blocks == 0)
        return Status::invalid_argument("model config is incomplete");

    std::vector<std::string> devices = options.devices;
    if (devices.empty())
        devices = mem::device_names();

    // Enumerate up front; the simulations fan out below and reduce in
    // this order, keeping the report jobs-invariant.
    std::vector<runtime::ServingSpec> grid;
    for (const std::string &name : devices) {
        const mem::RegisteredDevice *entry = mem::find_device(name);
        if (entry == nullptr) {
            return Status::invalid_argument(
                "unknown zoo device '" + name +
                "' (see `helmsim devices`)");
        }
        const bool ndp = entry->make()->kind() == mem::MemoryKind::kNdpDimm;
        for (auto scheme : {placement::PlacementKind::kBaseline,
                            placement::PlacementKind::kHelm,
                            placement::PlacementKind::kAllCpu}) {
            for (std::uint64_t batch : options.batches) {
                runtime::ServingSpec spec;
                spec.model = options.model;
                spec.memory = entry->name;
                spec.placement = scheme;
                spec.compress_weights = options.compress_weights;
                spec.batch = batch;
                spec.shape = options.shape;
                spec.repeats = 2; // first repeat discarded per Sec. III-C
                spec.gpu = options.gpu;
                grid.push_back(spec);
                if (ndp) {
                    spec.compute_site = placement::ComputeSiteMode::kNdpAuto;
                    grid.push_back(std::move(spec));
                }
            }
        }
    }

    const std::vector<SimPoint> sims = evaluate(grid, options.jobs);
    ParetoReport report;
    for (std::size_t i = 0; i < grid.size(); ++i)
        report.points.push_back(price(options, grid[i], sims[i]));
    report.frontier_size = mark_frontier(report.points);
    report.ndp_vs_dram = compare_ndp(report.points);
    if (options.include_hbf_exclusive)
        report.hbf = run_hbf_exclusive(options);
    return report;
}

std::string
report_text(const ParetoReport &report)
{
    std::ostringstream out;
    AsciiTable table("Device-zoo Pareto exploration");
    table.set_header({"device", "placement", "site", "batch", "TBT",
                      "tokens/s", "$/box", "$/Mtok", "fits", "front"});
    table.align_right_from(3);
    for (const ParetoPoint &p : report.points) {
        if (!p.ok) {
            table.add_row({p.device, p.placement, p.site,
                           std::to_string(p.batch), "-", "-", "-", "-",
                           "-", "-"});
            continue;
        }
        table.add_row(
            {p.device, p.placement, p.site, std::to_string(p.batch),
             format_seconds(p.tbt), format_fixed(p.throughput, 2),
             format_fixed(p.system_dollars, 0),
             format_fixed(p.cost_per_token * 1e6, 4),
             p.feasible ? "yes" : "no",
             std::string(p.on_frontier ? "*" : "")});
    }
    table.print(out);
    out << "frontier: " << report.frontier_size << " of "
        << report.points.size() << " points\n";

    if (report.ndp_vs_dram.valid) {
        out << "NDP vs DRAM (All-CPU, batch "
            << report.ndp_vs_dram.batch
            << "): TBT " << format_seconds(report.ndp_vs_dram.ndp_tbt)
            << " vs " << format_seconds(report.ndp_vs_dram.dram_tbt)
            << (report.ndp_vs_dram.ndp_dominates ? " (near-data wins)"
                                                 : " (GPU path wins)")
            << "\n";
    }
    if (report.hbf.ran) {
        out << "HBF exclusive: " << report.hbf.model << " ("
            << format_bytes(report.hbf.weight_bytes) << " fp16) fits "
            << report.hbf.admitting << "/" << report.hbf.devices
            << " devices"
            << (report.hbf.only_hbf ? " (HBF only)" : "") << ", TBT "
            << format_seconds(report.hbf.tbt) << ", endurance admits "
            << report.hbf.installs_supported << " installs\n";
    }
    return out.str();
}

} // namespace helm::sweep
