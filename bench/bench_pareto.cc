/**
 * @file
 * Device-zoo Pareto bench: sweeps placements across the backend zoo
 * (paper Table II/III tiers + NDP-DIMM + HBF), prices every box, and
 * emits the cost/latency frontier as BENCH_pareto.json
 * (schema helm-bench-pareto-v1).
 *
 * The bench gates its own invariants and exits non-zero when one
 * fails:
 *   - at least one NDP-DIMM configuration strictly beats the matching
 *     All-CPU DRAM point on TBT,
 *   - the HBF tier admits a model size no other registered device
 *     holds,
 *   - the report is byte-identical between jobs=1 and jobs=N.
 */
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_util.h"

namespace {

using namespace helm;

void
json_number(std::ostream &out, const char *key, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    out << "\"" << key << "\": " << buffer;
}

void
json_string(std::ostream &out, const char *key, const std::string &value)
{
    out << "\"" << key << "\": \"" << value << "\"";
}

sweep::ExploreOptions
make_options(std::size_t jobs)
{
    sweep::ExploreOptions options;
    options.model = model::opt_config(model::OptVariant::kOpt30B);
    options.compress_weights = true;
    options.batches = {1, 8};
    options.jobs = jobs;
    return options;
}

void
write_json(const std::string &path, const sweep::ParetoReport &r,
           std::size_t jobs, bool jobs_identical)
{
    std::ofstream out(path);
    out << "{\n  \"schema\": \"helm-bench-pareto-v1\",\n";
    out << "  \"model\": \"OPT-30B\",\n";
    out << "  \"jobs\": " << jobs << ",\n";
    out << "  \"points\": [\n";
    for (std::size_t i = 0; i < r.points.size(); ++i) {
        const sweep::ParetoPoint &p = r.points[i];
        out << "    {";
        json_string(out, "device", p.device);
        out << ", ";
        json_string(out, "placement", p.placement);
        out << ", ";
        json_string(out, "site", p.site);
        out << ", \"batch\": " << p.batch
            << ", \"ok\": " << (p.ok ? 1 : 0)
            << ", \"feasible\": " << (p.feasible ? 1 : 0) << ", ";
        json_number(out, "ttft_s", p.ttft);
        out << ", ";
        json_number(out, "tbt_s", p.tbt);
        out << ", ";
        json_number(out, "tokens_per_s", p.throughput);
        out << ", ";
        json_number(out, "system_dollars", p.system_dollars);
        out << ", ";
        json_number(out, "cost_per_mtok", p.cost_per_token * 1e6);
        out << ", \"ndp_steps\": " << p.ndp_steps
            << ", \"on_frontier\": " << (p.on_frontier ? 1 : 0) << "}"
            << (i + 1 < r.points.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"frontier_size\": " << r.frontier_size << ",\n";

    out << "  \"ndp_vs_dram\": {\"valid\": "
        << (r.ndp_vs_dram.valid ? 1 : 0)
        << ", \"batch\": " << r.ndp_vs_dram.batch << ", ";
    json_number(out, "dram_tbt_s", r.ndp_vs_dram.dram_tbt);
    out << ", ";
    json_number(out, "ndp_tbt_s", r.ndp_vs_dram.ndp_tbt);
    out << ", \"ndp_dominates\": "
        << (r.ndp_vs_dram.ndp_dominates ? 1 : 0) << "},\n";

    out << "  \"hbf_exclusive\": {\"ran\": " << (r.hbf.ran ? 1 : 0)
        << ", ";
    json_string(out, "model", r.hbf.model);
    out << ", \"weight_bytes\": " << r.hbf.weight_bytes
        << ", \"admitting\": " << r.hbf.admitting
        << ", \"devices\": " << r.hbf.devices
        << ", \"only_hbf\": " << (r.hbf.only_hbf ? 1 : 0) << ", ";
    json_number(out, "tbt_s", r.hbf.tbt);
    out << ", ";
    json_number(out, "tokens_per_s", r.hbf.throughput);
    out << ", \"endurance_budget_bytes\": " << r.hbf.endurance_budget
        << ", \"installs_supported\": " << r.hbf.installs_supported
        << "},\n";

    out << "  \"jobs_identical\": " << (jobs_identical ? 1 : 0) << "\n";
    out << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_pareto.json";
    const std::size_t jobs = exec::resolve_jobs(0);

    bench::banner("Device-zoo cost/latency Pareto frontier",
                  "backend zoo beyond Table II/III (NDP-DIMM, HBF)");

    auto sequential = sweep::explore(make_options(1));
    auto parallel = sweep::explore(make_options(jobs));
    if (!sequential.is_ok() || !parallel.is_ok()) {
        std::cerr << "bench: exploration failed: "
                  << sequential.status().to_string() << " "
                  << parallel.status().to_string() << "\n";
        return 1;
    }
    const std::string seq_text = sweep::report_text(*sequential);
    const std::string par_text = sweep::report_text(*parallel);
    const bool jobs_identical = seq_text == par_text;
    std::cout << par_text << "\n";

    write_json(out_path, *parallel, jobs, jobs_identical);
    std::cout << "wrote " << out_path << "\n";

    int failures = 0;
    const auto gate = [&failures](bool ok, const char *what) {
        if (!ok) {
            std::cerr << "bench: invariant violated: " << what << "\n";
            ++failures;
        }
    };
    gate(parallel->ndp_vs_dram.valid &&
             parallel->ndp_vs_dram.ndp_dominates,
         "NDP-DIMM must beat the All-CPU DRAM point on TBT");
    gate(parallel->hbf.ran && parallel->hbf.only_hbf,
         "HBF must admit a model no other device holds");
    gate(parallel->frontier_size >= 1, "frontier must be non-empty");
    gate(jobs_identical, "report must be identical at jobs=1 and jobs=N");
    return failures == 0 ? 0 : 1;
}
