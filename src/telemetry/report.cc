#include "telemetry/report.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/csv.h"
#include "common/table.h"
#include "common/units.h"

namespace helm::telemetry {
namespace {

double
value(const MetricsRegistry &reg, const std::string &name,
      const Labels &labels = {})
{
    return reg.value_or(name, labels);
}

std::uint64_t
count(const MetricsRegistry &reg, const std::string &name,
      const Labels &labels = {})
{
    return static_cast<std::uint64_t>(
        std::llround(reg.value_or(name, labels)));
}

Bytes
bytes_of(const MetricsRegistry &reg, const std::string &name,
         const Labels &labels = {})
{
    return static_cast<Bytes>(std::llround(reg.value_or(name, labels)));
}

/** One label value per series of @p index_metric, sorted by the gauge's
 *  numeric value — restores tier/port/GPU declaration order that the
 *  registry's alphabetical label maps would otherwise scramble. */
std::vector<std::string>
ordered_label(const MetricsRegistry &reg, const std::string &index_metric,
              const std::string &key)
{
    std::vector<std::pair<double, std::string>> entries;
    for (const Labels &labels : reg.label_sets(index_metric)) {
        auto it = labels.find(key);
        if (it == labels.end())
            continue;
        entries.emplace_back(reg.value_or(index_metric, labels),
                             it->second);
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (auto &[_, name] : entries)
        out.push_back(name);
    return out;
}

void
print_run_section(std::ostream &out, const MetricsRegistry &reg)
{
    AsciiTable table("Results");
    table.set_header({"metric", "value"});
    table.add_row(
        {"TTFT", format_seconds(value(reg, "helm_run_ttft_seconds"))});
    table.add_row(
        {"TBT", format_seconds(value(reg, "helm_run_tbt_seconds"))});
    table.add_row(
        {"throughput",
         format_fixed(value(reg, "helm_run_throughput_tokens_per_s"), 3) +
             " tokens/s"});
    table.add_row(
        {"weights gpu/cpu/disk",
         format_fixed(value(reg, "helm_placement_weight_percent",
                            {{"tier", "gpu"}}),
                      1) +
             " / " +
             format_fixed(value(reg, "helm_placement_weight_percent",
                                {{"tier", "cpu"}}),
                          1) +
             " / " +
             format_fixed(value(reg, "helm_placement_weight_percent",
                                {{"tier", "disk"}}),
                          1) +
             " %"});
    table.add_row(
        {"GPU memory",
         format_bytes(bytes_of(reg, "helm_gpu_memory_used_bytes")) +
             " of " +
             format_bytes(
                 bytes_of(reg, "helm_gpu_memory_capacity_bytes"))});
    if (reg.has("helm_spilled_weight_bytes")) {
        table.add_row(
            {"spilled weights",
             format_bytes(bytes_of(reg, "helm_spilled_weight_bytes"))});
    }
    table.print(out);
}

void
print_kv_section(std::ostream &out, const MetricsRegistry &reg)
{
    AsciiTable table("KV cache tiers");
    table.set_header({"tier", "capacity", "peak", "read", "written",
                      "demoted in"});
    table.align_right_from(1);
    for (const std::string &tier :
         ordered_label(reg, "helm_kv_tier_index", "tier")) {
        const Labels labels = {{"tier", tier}};
        const Bytes capacity =
            bytes_of(reg, "helm_kv_tier_capacity_bytes", labels);
        table.add_row(
            {tier, capacity > 0 ? format_bytes(capacity) : "unbounded",
             format_bytes(
                 bytes_of(reg, "helm_kv_tier_peak_occupancy_bytes",
                          labels)),
             format_bytes(bytes_of(reg, "helm_kv_read_bytes_total",
                                   labels)),
             format_bytes(bytes_of(reg, "helm_kv_write_bytes_total",
                                   labels)),
             format_bytes(bytes_of(reg, "helm_kv_demoted_in_bytes_total",
                                   labels))});
    }
    table.print(out);
    out << "kv blocks:   " << count(reg, "helm_kv_demotions_total")
        << " demoted\n";
}

void
print_serving_section(std::ostream &out, const MetricsRegistry &reg)
{
    const auto info = reg.label_sets("helm_run_info");
    if (!info.empty()) {
        const Labels &labels = info.front();
        auto label = [&](const char *key) {
            auto it = labels.find(key);
            return it == labels.end() ? std::string() : it->second;
        };
        out << label("model") << " on " << label("memory") << " with "
            << label("placement") << ", max batch "
            << count(reg, "helm_serving_max_batch");
        const std::uint64_t kv_slots =
            count(reg, "helm_serving_kv_request_slots");
        if (kv_slots > 0)
            out << " (KV tiers hold " << kv_slots << " requests)";
        out << "\n";
    }

    AsciiTable table("ServingReport");
    table.set_header({"metric", "p50", "p90", "p95", "p99"});
    table.align_right_from(1);
    auto pct_row = [&](const char *name, const char *metric) {
        std::vector<std::string> row = {name};
        for (const char *q : {"0.50", "0.90", "0.95", "0.99"})
            row.push_back(format_seconds(
                value(reg, metric, {{"quantile", q}})));
        table.add_row(row);
    };
    pct_row("queueing delay", "helm_serving_queue_wait_quantile_seconds");
    pct_row("TTFT", "helm_serving_ttft_quantile_seconds");
    pct_row("TBT", "helm_serving_tbt_quantile_seconds");
    pct_row("e2e latency", "helm_serving_e2e_quantile_seconds");
    table.print(out);

    const std::uint64_t kv_rejected = count(
        reg, "helm_serving_requests_total", {{"outcome", "kv_rejected"}});
    out << "requests:    "
        << count(reg, "helm_serving_requests_total",
                 {{"outcome", "completed"}})
        << " completed / "
        << count(reg, "helm_serving_requests_total",
                 {{"outcome", "rejected"}})
        << " rejected of "
        << count(reg, "helm_serving_requests_total",
                 {{"outcome", "submitted"}})
        << " submitted";
    if (kv_rejected > 0)
        out << " (" << kv_rejected << " exceeded KV capacity)";
    out << "\n"
        << "batches:     " << count(reg, "helm_serving_batches_formed_total")
        << " formed, mean size "
        << format_fixed(value(reg, "helm_serving_mean_batch_size"), 2)
        << ", peak queue " << count(reg, "helm_serving_peak_queue_depth")
        << "\n"
        << "throughput:  "
        << format_fixed(value(reg, "helm_serving_throughput_tokens_per_s"),
                        2)
        << " tokens/s over "
        << format_seconds(value(reg, "helm_serving_makespan_seconds"))
        << "\n"
        << "goodput:     "
        << format_fixed(value(reg, "helm_serving_goodput_tokens_per_s"), 2)
        << " tokens/s under SLO ("
        << format_fixed(
               100.0 * value(reg, "helm_serving_slo_attainment_ratio"), 1)
        << " % of requests met it)\n";

    // Continuous/EDF extras: the families only exist when an
    // iteration-level scheduler ran.  A fcfs run shows its deadline
    // misses when its stream carried deadlines.
    const auto sched = reg.label_sets("helm_serving_scheduler_info");
    if (sched.empty()) {
        if (reg.has("helm_serving_deadline_misses_total")) {
            out << "deadlines:   "
                << count(reg, "helm_serving_deadline_misses_total")
                << " missed\n";
        }
        return;
    }
    auto kind = sched.front().find("scheduler");
    out << "scheduler:   "
        << (kind == sched.front().end() ? "?" : kind->second) << ", "
        << count(reg, "helm_serving_iterations_total") << " iterations, "
        << count(reg, "helm_serving_preemptions_total")
        << " preemptions / "
        << count(reg, "helm_serving_resumes_total") << " resumes\n"
        << "kv swap:     "
        << format_bytes(bytes_of(reg, "helm_serving_kv_swap_bytes_total",
                                 {{"direction", "demote"}}))
        << " demoted, "
        << format_bytes(bytes_of(reg, "helm_serving_kv_swap_bytes_total",
                                 {{"direction", "promote"}}))
        << " promoted, "
        << format_seconds(
               value(reg, "helm_serving_kv_swap_exposed_seconds"))
        << " exposed stall\n"
        << "deadlines:   "
        << count(reg, "helm_serving_deadline_misses_total")
        << " missed, "
        << count(reg, "helm_serving_starvation_events_total")
        << " starvation events, Jain fairness "
        << format_fixed(value(reg, "helm_serving_jain_fairness"), 3)
        << "\n";

    std::vector<std::string> tenants;
    for (const Labels &labels :
         reg.label_sets("helm_serving_tenant_tokens_total")) {
        auto it = labels.find("tenant");
        if (it != labels.end())
            tenants.push_back(it->second);
    }
    std::sort(tenants.begin(), tenants.end(),
              [](const std::string &a, const std::string &b) {
                  return std::strtoull(a.c_str(), nullptr, 10) <
                         std::strtoull(b.c_str(), nullptr, 10);
              });
    if (tenants.size() < 2)
        return;
    AsciiTable tenant_table("Tenants");
    tenant_table.set_header({"tenant", "completed", "tokens", "preempted",
                             "dl missed", "starved", "mean TTFT"});
    tenant_table.align_right_from(1);
    for (const std::string &id : tenants) {
        const Labels labels = {{"tenant", id}};
        tenant_table.add_row(
            {id,
             std::to_string(count(reg,
                                  "helm_serving_tenant_requests_total",
                                  {{"tenant", id},
                                   {"outcome", "completed"}})),
             std::to_string(
                 count(reg, "helm_serving_tenant_tokens_total", labels)),
             std::to_string(count(
                 reg, "helm_serving_tenant_preemptions_total", labels)),
             std::to_string(
                 count(reg, "helm_serving_tenant_deadline_misses_total",
                       labels)),
             std::to_string(count(
                 reg, "helm_serving_tenant_starvation_total", labels)),
             format_seconds(value(
                 reg, "helm_serving_tenant_mean_ttft_seconds", labels))});
    }
    tenant_table.print(out);
}

void
print_saturation_section(std::ostream &out, const MetricsRegistry &reg)
{
    AsciiTable table("Saturation results");
    table.set_header({"metric", "value"});
    table.add_row(
        {"aggregate throughput",
         format_fixed(value(reg, "helm_saturation_throughput_tokens_per_s"),
                      3) +
             " tokens/s"});
    table.add_row(
        {"TTFT",
         format_seconds(value(reg, "helm_saturation_ttft_seconds"))});
    table.add_row(
        {"TBT",
         format_seconds(value(reg, "helm_saturation_tbt_seconds"))});
    table.add_row(
        {"makespan",
         format_seconds(value(reg, "helm_saturation_makespan_seconds"))});
    table.add_row(
        {"total tokens",
         std::to_string(count(reg, "helm_saturation_total_tokens"))});
    table.print(out);
}

void
print_gpu_section(std::ostream &out, const MetricsRegistry &reg)
{
    AsciiTable table("Per-GPU utilization");
    table.set_header(
        {"gpu", "batches", "requests", "busy", "h2d", "d2h", "util"});
    table.align_right_from(1);
    std::vector<std::string> gpus;
    for (const Labels &labels :
         reg.label_sets("helm_cluster_gpu_busy_seconds")) {
        auto it = labels.find("gpu");
        if (it != labels.end())
            gpus.push_back(it->second);
    }
    std::stable_sort(gpus.begin(), gpus.end(),
                     [](const std::string &a, const std::string &b) {
                         return std::strtoull(a.c_str(), nullptr, 10) <
                                std::strtoull(b.c_str(), nullptr, 10);
                     });
    for (const std::string &gpu : gpus) {
        const Labels labels = {{"gpu", gpu}};
        table.add_row(
            {gpu,
             std::to_string(
                 count(reg, "helm_cluster_gpu_batches_total", labels)),
             std::to_string(
                 count(reg, "helm_cluster_gpu_requests_total", labels)),
             format_seconds(
                 value(reg, "helm_cluster_gpu_busy_seconds", labels)),
             format_bytes(
                 bytes_of(reg, "helm_cluster_gpu_h2d_bytes_total",
                          labels)),
             format_bytes(
                 bytes_of(reg, "helm_cluster_gpu_d2h_bytes_total",
                          labels)),
             format_fixed(
                 100.0 * value(reg, "helm_cluster_gpu_utilization_ratio",
                               labels),
                 1) +
                 " %"});
    }
    table.print(out);
}

void
print_port_section(std::ostream &out, const MetricsRegistry &reg)
{
    AsciiTable table("Shared host-memory ports");
    table.set_header(
        {"port", "rate", "bytes", "util", "throttled"});
    table.align_right_from(1);
    for (const std::string &port :
         ordered_label(reg, "helm_cluster_port_index", "port")) {
        const Labels labels = {{"port", port}};
        table.add_row(
            {port,
             format_bandwidth(Bandwidth::bytes_per_s(value(
                 reg, "helm_cluster_port_rate_bytes_per_s", labels))),
             format_bytes(bytes_of(reg, "helm_cluster_port_bytes_total",
                                   labels)),
             format_fixed(
                 100.0 * value(reg,
                               "helm_cluster_port_utilization_ratio",
                               labels),
                 1) +
                 " %",
             std::to_string(count(
                 reg, "helm_cluster_port_throttle_events_total",
                 labels))});
    }
    table.print(out);
}

void
print_alert_section(std::ostream &out, const MetricsRegistry &reg)
{
    AsciiTable table("SLO burn-rate alerts");
    table.set_header(
        {"slo", "state", "fires", "clears", "peak burn", "fast", "slow"});
    table.align_right_from(2);
    std::vector<std::string> slos;
    for (const Labels &labels : reg.label_sets("helm_alert_active")) {
        auto it = labels.find("slo");
        if (it != labels.end())
            slos.push_back(it->second);
    }
    for (const std::string &slo : slos) {
        const Labels labels = {{"slo", slo}};
        const bool active =
            value(reg, "helm_alert_active", labels) > 0.0;
        table.add_row(
            {slo, active ? "FIRING" : "ok",
             std::to_string(count(reg, "helm_alert_events_total",
                                  {{"slo", slo},
                                   {"transition", "fire"}})),
             std::to_string(count(reg, "helm_alert_events_total",
                                  {{"slo", slo},
                                   {"transition", "clear"}})),
             format_fixed(value(reg, "helm_alert_peak_burn", labels), 2),
             format_fixed(value(reg, "helm_alert_fast_burn", labels), 2),
             format_fixed(value(reg, "helm_alert_slow_burn", labels),
                          2)});
    }
    table.print(out);
}

void
print_trace_section(std::ostream &out, const MetricsRegistry &reg)
{
    out << "tracing:     " << count(reg, "helm_trace_retained")
        << " traces retained of " << count(reg, "helm_trace_traces_total")
        << " observed ("
        << count(reg, "helm_trace_flagged_total") << " flagged, "
        << count(reg, "helm_trace_evicted_total") << " evicted, bound "
        << count(reg, "helm_trace_capacity_traces") << " x "
        << count(reg, "helm_trace_capacity_spans_per_trace")
        << " spans)\n";
}

} // namespace

void
print_run_report(std::ostream &out, const MetricsRegistry &registry)
{
    if (registry.has("helm_run_ttft_seconds"))
        print_run_section(out, registry);
    if (registry.has("helm_kv_tier_index"))
        print_kv_section(out, registry);
    if (registry.has("helm_serving_max_batch"))
        print_serving_section(out, registry);
    if (registry.has("helm_saturation_throughput_tokens_per_s"))
        print_saturation_section(out, registry);
    if (registry.has("helm_cluster_gpu_busy_seconds"))
        print_gpu_section(out, registry);
    if (registry.has("helm_cluster_port_rate_bytes_per_s"))
        print_port_section(out, registry);
    // Observability extras: families exist only when --alerts /
    // --trace-out ran, so default output is byte-identical.
    if (registry.has("helm_alert_active"))
        print_alert_section(out, registry);
    if (registry.has("helm_trace_retained"))
        print_trace_section(out, registry);
}

} // namespace helm::telemetry
