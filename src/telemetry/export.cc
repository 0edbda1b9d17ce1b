#include "telemetry/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace helm::telemetry {
namespace {

/**
 * Shortest round-trip decimal for a double.  %.17g always round-trips
 * but prints 0.1 as 0.10000000000000001; try ascending precision and
 * keep the first that survives a parse back.
 */
std::string
format_double(double value)
{
    if (std::isnan(value))
        return "NaN";
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    char buf[40];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

/** Append the {a="x",b="y"} body (no braces) onto @p out. */
void
append_prometheus_labels(std::string &out, const Labels &labels)
{
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += key;
        out += "=\"";
        // Prometheus label values escape backslash, quote, newline.
        for (char c : value) {
            switch (c) {
            case '\\':
                out += "\\\\";
                break;
            case '"':
                out += "\\\"";
                break;
            case '\n':
                out += "\\n";
                break;
            default:
                out += c;
            }
        }
        out += "\"";
    }
}

/** Refill @p out with name{labels} or name{labels,extra}.  Exporter
 *  loops pass one hoisted buffer, so a series render reuses capacity
 *  instead of constructing fresh strings per sample. */
void
refill_prometheus_series(std::string &out, const std::string &name,
                         const Labels &labels, const char *extra = nullptr)
{
    out.assign(name);
    if (labels.empty() && extra == nullptr)
        return;
    out += "{";
    append_prometheus_labels(out, labels);
    if (extra != nullptr) {
        if (!labels.empty())
            out += ",";
        out += extra;
    }
    out += "}";
}

/** Append the JSON label object onto @p out. */
void
append_json_labels(std::string &out, const Labels &labels)
{
    out += "{";
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += "\"";
        json_escape_append(out, key);
        out += "\":\"";
        json_escape_append(out, value);
        out += "\"";
    }
    out += "}";
}

} // namespace

void
json_escape_append(std::string &out, const std::string &raw)
{
    for (unsigned char c : raw) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
}

void
json_escape_append_stream(std::ostream &out, const std::string &raw)
{
    // Fast path: nothing to escape, one bulk write.
    std::size_t clean = 0;
    while (clean < raw.size()) {
        const unsigned char c = static_cast<unsigned char>(raw[clean]);
        if (c == '"' || c == '\\' || c < 0x20)
            break;
        ++clean;
    }
    if (clean == raw.size()) {
        out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
        return;
    }
    std::string escaped;
    escaped.reserve(raw.size() + 8);
    json_escape_append(escaped, raw);
    out.write(escaped.data(), static_cast<std::streamsize>(escaped.size()));
}

std::string
prometheus_text(const MetricsRegistry &registry)
{
    std::ostringstream out;
    // Hoisted render buffers: the family/series loops refill these in
    // place instead of constructing strings per sample.
    std::string series;
    std::string derived_name;
    std::string extra;
    for (const auto &[name, fam] : registry.families()) {
        if (!fam.help.empty())
            out << "# HELP " << name << " " << fam.help << "\n";
        out << "# TYPE " << name << " " << metric_kind_name(fam.kind)
            << "\n";
        for (const auto &[labels, counter] : fam.counters) {
            refill_prometheus_series(series, name, labels);
            out << series << " " << format_double(counter.value())
                << "\n";
        }
        for (const auto &[labels, gauge] : fam.gauges) {
            refill_prometheus_series(series, name, labels);
            out << series << " " << format_double(gauge.value()) << "\n";
        }
        for (const auto &[labels, hist] : fam.histograms) {
            std::uint64_t cumulative = 0;
            const auto &bounds = hist.bounds();
            const auto &counts = hist.counts();
            derived_name.assign(name);
            derived_name += "_bucket";
            for (std::size_t i = 0; i < bounds.size(); ++i) {
                cumulative += counts[i];
                extra.assign("le=\"");
                extra += format_double(bounds[i]);
                extra += "\"";
                refill_prometheus_series(series, derived_name, labels,
                                         extra.c_str());
                out << series << " " << cumulative << "\n";
            }
            refill_prometheus_series(series, derived_name, labels,
                                     "le=\"+Inf\"");
            out << series << " " << hist.count() << "\n";
            derived_name.assign(name);
            derived_name += "_sum";
            refill_prometheus_series(series, derived_name, labels);
            out << series << " " << format_double(hist.sum()) << "\n";
            derived_name.assign(name);
            derived_name += "_count";
            refill_prometheus_series(series, derived_name, labels);
            out << series << " " << hist.count() << "\n";
        }
    }
    return out.str();
}

std::string
json_snapshot(const MetricsRegistry &registry)
{
    std::ostringstream out;
    out << "{\"schema\":\"helm-metrics-v1\",\"metrics\":[";
    bool first = true;
    std::string labels_json; // hoisted across the metric loops
    auto begin_metric = [&](const std::string &name, const char *type,
                            const Labels &labels) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"name\":\"";
        json_escape_append_stream(out, name);
        out << "\",\"type\":\"" << type << "\",\"labels\":";
        labels_json.clear();
        append_json_labels(labels_json, labels);
        out << labels_json;
    };
    for (const auto &[name, fam] : registry.families()) {
        for (const auto &[labels, counter] : fam.counters) {
            begin_metric(name, "counter", labels);
            out << ",\"value\":" << format_double(counter.value()) << "}";
        }
        for (const auto &[labels, gauge] : fam.gauges) {
            begin_metric(name, "gauge", labels);
            out << ",\"value\":" << format_double(gauge.value()) << "}";
        }
        for (const auto &[labels, hist] : fam.histograms) {
            begin_metric(name, "histogram", labels);
            out << ",\"buckets\":[";
            std::uint64_t cumulative = 0;
            const auto &bounds = hist.bounds();
            const auto &counts = hist.counts();
            for (std::size_t i = 0; i <= bounds.size(); ++i) {
                if (i)
                    out << ",";
                cumulative += counts[i];
                out << "{\"le\":";
                if (i < bounds.size())
                    out << format_double(bounds[i]);
                else
                    out << "\"+Inf\"";
                out << ",\"count\":" << cumulative << "}";
            }
            out << "],\"sum\":" << format_double(hist.sum())
                << ",\"count\":" << hist.count() << "}";
        }
    }
    out << "]}";
    return out.str();
}

Status
write_text_file(const std::string &path, const std::string &text)
{
    std::ofstream file(path, std::ios::out | std::ios::trunc);
    if (!file)
        return Status::invalid_argument("cannot open for writing: " + path);
    file << text;
    if (!file)
        return Status::internal("write failed: " + path);
    return Status::ok();
}

} // namespace helm::telemetry
