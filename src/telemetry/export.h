/**
 * @file
 * Exporters: render a MetricsRegistry as Prometheus text exposition or
 * as a JSON snapshot ("helm-metrics-v1").  Both walk the same registry
 * in the same deterministic order, so a run's artifacts can never
 * disagree with its stdout tables.
 */
#ifndef HELM_TELEMETRY_EXPORT_H
#define HELM_TELEMETRY_EXPORT_H

#include <ostream>
#include <string>

#include "common/status.h"
#include "telemetry/metrics.h"

namespace helm::telemetry {

/**
 * Escape @p raw onto the end of @p out for inclusion inside a JSON
 * string literal (quotes, backslashes, control characters), without a
 * temporary — for exporter loops that refill one hoisted buffer per
 * iteration.  Shared with the chrome-trace writer so event names
 * survive arbitrary tier labels.
 */
void json_escape_append(std::string &out, const std::string &raw);

/** Escape @p raw straight into @p out — for exporters that stream. */
void json_escape_append_stream(std::ostream &out, const std::string &raw);

/**
 * Prometheus text exposition format (# HELP / # TYPE lines, cumulative
 * `le` histogram buckets with +Inf, _sum and _count series).
 */
std::string prometheus_text(const MetricsRegistry &registry);

/**
 * JSON snapshot:
 *   {"schema": "helm-metrics-v1",
 *    "metrics": [{"name":..., "type":..., "labels":{...}, "value":...} |
 *                {..., "buckets":[{"le":...,"count":...}...],
 *                 "sum":..., "count":...}]}
 * Counters/gauges carry "value"; histograms carry cumulative buckets
 * plus sum and count.  Numbers use max round-trip precision.
 */
std::string json_snapshot(const MetricsRegistry &registry);

/** Write @p text to @p path, creating/truncating; errors on I/O failure. */
Status write_text_file(const std::string &path, const std::string &text);

} // namespace helm::telemetry

#endif // HELM_TELEMETRY_EXPORT_H
