/**
 * @file
 * The metrics registry: counters, gauges, and fixed-bucket histograms,
 * string-labeled, no external dependencies.
 *
 * The paper's whole contribution is a characterization — knowing where
 * each per-layer millisecond goes is what makes HeLM and All-CPU
 * possible — so the simulator's subsystems (engine, scheduler, KV
 * cache, cluster) all feed one `MetricsRegistry` per run.  Exporters
 * (`telemetry/export.h`) render the registry as Prometheus text
 * exposition or a JSON snapshot, and the report printer
 * (`telemetry/report.h`) renders the stdout tables — one source of
 * truth, three views that cannot disagree.
 *
 * Design notes:
 *  - Everything is deterministic: metrics live in a `std::map` keyed by
 *    (name, sorted labels), so iteration order — and therefore every
 *    exporter's output — is stable across runs.
 *  - Values are doubles.  The simulator's byte counts fit a double
 *    exactly up to 2^53 (8 PiB), far beyond any run here.
 *  - Histograms use explicit upper-bound buckets fixed at creation
 *    (Prometheus `le` semantics, cumulative at export time); a
 *    `+Inf` bucket is implicit.
 */
#ifndef HELM_TELEMETRY_METRICS_H
#define HELM_TELEMETRY_METRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace helm::telemetry {

/** Sorted (key, value) label set; the map keeps export order stable. */
using Labels = std::map<std::string, std::string>;

/** What a metric is, for exporters (`# TYPE` lines, JSON "type"). */
enum class MetricKind
{
    kCounter,
    kGauge,
    kHistogram,
};

/** Printable name ("counter", "gauge", "histogram"). */
const char *metric_kind_name(MetricKind kind);

/** Monotonically increasing value (bytes moved, requests served). */
class Counter
{
  public:
    void add(double delta) { value_ += delta >= 0.0 ? delta : 0.0; }
    void increment() { add(1.0); }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Point-in-time value (utilization, occupancy, a percentile). */
class Gauge
{
  public:
    void set(double value) { value_ = value; }
    void add(double delta) { value_ += delta; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Fixed-bucket histogram.  Buckets are non-cumulative counts per
 * interval (..., bounds[i]]; export converts to Prometheus cumulative
 * `le` form.  The overflow (`+Inf`) bucket is `counts.back()`.
 */
class Histogram
{
  public:
    /** @p bounds must be strictly increasing; may be empty. */
    explicit Histogram(std::vector<double> bounds);

    void observe(double value);

    const std::vector<double> &bounds() const { return bounds_; }
    /** Per-interval counts; size() == bounds().size() + 1 (+Inf last). */
    const std::vector<std::uint64_t> &counts() const { return counts_; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    /** Mean of observed values; 0 when empty. */
    double mean() const;

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * Default latency buckets, 100 us .. 5000 s in a 1-2.5-5 ladder — wide
 * enough to hold both an OPT-1.3B TBT and a queue-saturated OPT-175B
 * end-to-end latency without falling into +Inf.
 */
std::vector<double> default_latency_buckets();

/**
 * One run's metrics.  Accessors find-or-create, so call sites never
 * pre-register; the first call fixes the metric's kind and help text
 * (later calls with a different kind for the same name are a bug and
 * abort in debug builds, return the existing metric otherwise).
 */
class MetricsRegistry
{
  public:
    /** One (labels -> value) sample family under a metric name. */
    struct Family
    {
        MetricKind kind = MetricKind::kGauge;
        std::string help;
        std::map<Labels, Counter> counters;
        std::map<Labels, Gauge> gauges;
        std::map<Labels, Histogram> histograms;
    };

    Counter &counter(const std::string &name, const Labels &labels = {},
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const Labels &labels = {},
                 const std::string &help = "");
    /** @p bounds is used only on first creation of (name, labels). */
    Histogram &histogram(const std::string &name,
                         const Labels &labels = {},
                         std::vector<double> bounds = {},
                         const std::string &help = "");

    /** Families in name order (export order). */
    const std::map<std::string, Family> &families() const
    {
        return families_;
    }

    /** True when any sample exists under @p name. */
    bool has(const std::string &name) const;

    /**
     * The value of a counter/gauge sample, or @p fallback when the
     * metric or label set does not exist.  Convenience for the report
     * printer; histograms return their sum.
     */
    double value_or(const std::string &name, const Labels &labels = {},
                    double fallback = 0.0) const;

    /**
     * Every label set recorded under @p name, in map order.  Empty when
     * the metric does not exist.
     */
    std::vector<Labels> label_sets(const std::string &name) const;

  private:
    Family &family(const std::string &name, MetricKind kind,
                   const std::string &help);

    std::map<std::string, Family> families_;
};

} // namespace helm::telemetry

#endif // HELM_TELEMETRY_METRICS_H
