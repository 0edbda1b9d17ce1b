/**
 * @file
 * Unit tests for the telemetry core: registry semantics (find-or-create,
 * deterministic ordering), histogram bucketing, the Prometheus/JSON
 * exporters, and the TimeAttribution accumulator's registry round trip.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "telemetry/attribution.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace helm::telemetry {
namespace {

/**
 * Minimal structural JSON check: braces/brackets balance outside string
 * literals and no unterminated string remains.  Not a full parser, but
 * enough to catch truncated or unescaped output.
 */
bool
json_balanced(const std::string &text)
{
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i; // skip the escaped character
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

TEST(Registry, CounterFindOrCreateAccumulates)
{
    MetricsRegistry registry;
    registry.counter("helm_test_total", {{"kind", "a"}}).add(2.0);
    registry.counter("helm_test_total", {{"kind", "a"}}).increment();
    registry.counter("helm_test_total", {{"kind", "b"}}).increment();

    EXPECT_DOUBLE_EQ(
        registry.value_or("helm_test_total", {{"kind", "a"}}), 3.0);
    EXPECT_DOUBLE_EQ(
        registry.value_or("helm_test_total", {{"kind", "b"}}), 1.0);
    EXPECT_EQ(registry.label_sets("helm_test_total").size(), 2u);
    // One family: the exposition declares its type once.
    const std::string text = prometheus_text(registry);
    EXPECT_EQ(text.find("# TYPE "), text.rfind("# TYPE "));
}

TEST(Registry, CounterIgnoresNegativeDeltas)
{
    MetricsRegistry registry;
    registry.counter("c").add(5.0);
    registry.counter("c").add(-3.0);
    EXPECT_DOUBLE_EQ(registry.value_or("c"), 5.0);
}

TEST(Registry, GaugeSetAndAdd)
{
    MetricsRegistry registry;
    registry.gauge("g").set(1.5);
    registry.gauge("g").add(0.5);
    EXPECT_DOUBLE_EQ(registry.value_or("g"), 2.0);
    EXPECT_TRUE(registry.has("g"));
    EXPECT_FALSE(registry.has("missing"));
    EXPECT_DOUBLE_EQ(registry.value_or("missing", {}, 7.0), 7.0);
}

TEST(Registry, HistogramBucketsAndMoments)
{
    MetricsRegistry registry;
    Histogram &h = registry.histogram("h", {}, {1.0, 2.0, 4.0});
    h.observe(0.5); // bucket 0 (<= 1)
    h.observe(1.5); // bucket 1 (<= 2)
    h.observe(3.0); // bucket 2 (<= 4)
    h.observe(9.0); // +Inf overflow

    ASSERT_EQ(h.counts().size(), 4u);
    EXPECT_EQ(h.counts()[0], 1u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[2], 1u);
    EXPECT_EQ(h.counts()[3], 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 14.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.5);
    // value_or on a histogram reports its sum.
    EXPECT_DOUBLE_EQ(registry.value_or("h"), 14.0);
}

TEST(Registry, DefaultLatencyBucketsStrictlyIncrease)
{
    const auto bounds = default_latency_buckets();
    ASSERT_GT(bounds.size(), 4u);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]);
    EXPECT_LE(bounds.front(), 1e-3);
    EXPECT_GE(bounds.back(), 1000.0);
}

TEST(Registry, FamiliesIterateInNameOrder)
{
    MetricsRegistry registry;
    registry.counter("zeta");
    registry.gauge("alpha");
    registry.counter("mid");
    std::vector<std::string> names;
    for (const auto &[name, family] : registry.families())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(JsonEscape, QuotesBackslashesAndControls)
{
    // The string and stream forms escape identically.
    const auto json_escape = [](const std::string &raw) {
        std::string appended;
        json_escape_append(appended, raw);
        std::ostringstream streamed;
        json_escape_append_stream(streamed, raw);
        EXPECT_EQ(streamed.str(), appended);
        return appended;
    };
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json_escape("a\nb"), "a\\nb");
    EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Exporters, HostileLabelValueSurvivesBothExporters)
{
    // One hostile label value (quote, backslash, newline) through both
    // exporters: each must escape per its own grammar, and the JSON
    // document must stay structurally parseable.
    MetricsRegistry registry;
    registry.counter("helm_bytes_total", {{"tier", "a\"b\\c\nd"}})
        .add(1.0);

    const std::string text = prometheus_text(registry);
    EXPECT_NE(text.find("tier=\"a\\\"b\\\\c\\nd\""), std::string::npos)
        << text;
    // The raw newline must not survive into the series line.
    EXPECT_EQ(text.find("c\nd"), std::string::npos);

    const std::string json = json_snapshot(registry);
    EXPECT_TRUE(json_balanced(json)) << json;
    EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos) << json;
    EXPECT_EQ(json.find("c\nd"), std::string::npos);
}

TEST(Prometheus, RendersHelpTypeLabelsAndHistograms)
{
    MetricsRegistry registry;
    registry.counter("helm_bytes_total", {{"device", "host"}}, "Bytes")
        .add(1024.0);
    registry.gauge("helm_util", {}, "Utilization").set(0.25);
    registry.histogram("helm_latency_seconds", {}, {0.1, 1.0}, "Latency")
        .observe(0.5);

    const std::string text = prometheus_text(registry);
    EXPECT_NE(text.find("# HELP helm_bytes_total Bytes"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE helm_bytes_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("helm_bytes_total{device=\"host\"} 1024"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE helm_util gauge"), std::string::npos);
    EXPECT_NE(text.find("helm_util 0.25"), std::string::npos);
    // Cumulative le buckets, +Inf, _sum and _count series.
    EXPECT_NE(text.find("helm_latency_seconds_bucket{le=\"0.1\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("helm_latency_seconds_bucket{le=\"1\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("helm_latency_seconds_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("helm_latency_seconds_sum 0.5"),
              std::string::npos);
    EXPECT_NE(text.find("helm_latency_seconds_count 1"),
              std::string::npos);
}

TEST(JsonSnapshot, SchemaStructureAndEscaping)
{
    MetricsRegistry registry;
    registry.counter("helm_bytes_total", {{"tier", "we\"ird\\tier"}})
        .add(7.0);
    registry.histogram("helm_lat", {}, {1.0}).observe(2.0);

    const std::string json = json_snapshot(registry);
    EXPECT_TRUE(json_balanced(json)) << json;
    EXPECT_NE(json.find("\"schema\":\"helm-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"helm_bytes_total\""),
              std::string::npos);
    EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
    EXPECT_NE(json.find("we\\\"ird\\\\tier"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
    EXPECT_NE(json.find("\"sum\":2"), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(WriteTextFile, WritesAndFailsOnBadPath)
{
    const std::string path = "/tmp/helm_telemetry_test.txt";
    ASSERT_TRUE(write_text_file(path, "hello\n").is_ok());
    std::ifstream file(path);
    std::string line;
    std::getline(file, line);
    EXPECT_EQ(line, "hello");
    std::remove(path.c_str());

    EXPECT_FALSE(
        write_text_file("/nonexistent-dir/x.txt", "x").is_ok());
}

TEST(Attribution, AccumulatesMergesAndTotals)
{
    TimeAttribution a;
    a.add("mha", Phase::kCompute, 2.0);
    a.add("mha", Phase::kTransfer, 1.0);
    a.add("ffn", Phase::kKvStall, 0.5);
    a.add("ffn", Phase::kWriteback, 0.25);
    a.add("ffn", Phase::kCompute, -1.0); // ignored
    a.add("ffn", Phase::kCompute, 0.0);  // ignored
    a.add_idle(0.25);
    a.set_wall(4.0);

    EXPECT_DOUBLE_EQ(a.buckets().at("mha").total(), 3.0);
    EXPECT_DOUBLE_EQ(a.buckets().at("ffn").total(), 0.75);
    EXPECT_DOUBLE_EQ(a.attributed_total(), 4.0);
    EXPECT_DOUBLE_EQ(a.wall(), 4.0);

    TimeAttribution b;
    b.add("mha", Phase::kCompute, 1.0);
    b.set_wall(1.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.buckets().at("mha").compute, 3.0);
    EXPECT_DOUBLE_EQ(a.wall(), 5.0);
    EXPECT_DOUBLE_EQ(a.attributed_total(), 5.0);
}

TEST(Attribution, RegistryRoundTrip)
{
    TimeAttribution a;
    a.add("mha", Phase::kCompute, 2.0);
    a.add("mha", Phase::kTransfer, 1.5);
    a.add("ffn", Phase::kWriteback, 0.5);
    a.add_idle(1.0);
    a.set_wall(5.0);

    MetricsRegistry registry;
    a.record(registry);
    EXPECT_DOUBLE_EQ(
        registry.value_or("helm_attribution_seconds",
                          {{"layer", "mha"}, {"phase", "compute"}}),
        2.0);
    EXPECT_DOUBLE_EQ(registry.value_or("helm_attribution_idle_seconds"),
                     1.0);
    EXPECT_DOUBLE_EQ(registry.value_or("helm_wall_seconds"), 5.0);

    const TimeAttribution back = TimeAttribution::from_registry(registry);
    EXPECT_DOUBLE_EQ(back.buckets().at("mha").compute, 2.0);
    EXPECT_DOUBLE_EQ(back.buckets().at("mha").transfer, 1.5);
    EXPECT_DOUBLE_EQ(back.buckets().at("ffn").writeback, 0.5);
    EXPECT_DOUBLE_EQ(back.idle(), 1.0);
    EXPECT_DOUBLE_EQ(back.wall(), 5.0);
    EXPECT_DOUBLE_EQ(back.attributed_total(), a.attributed_total());
}

TEST(Attribution, TableListsLayersIdleAndTotal)
{
    TimeAttribution a;
    a.add("mha", Phase::kCompute, 3.0);
    a.add("ffn", Phase::kTransfer, 1.0);
    a.add_idle(1.0);
    a.set_wall(5.0);

    const std::string table = a.to_table();
    EXPECT_NE(table.find("Time attribution"), std::string::npos);
    EXPECT_NE(table.find("mha"), std::string::npos);
    EXPECT_NE(table.find("ffn"), std::string::npos);
    EXPECT_NE(table.find("idle"), std::string::npos);
    EXPECT_NE(table.find("total"), std::string::npos);
    EXPECT_NE(table.find("100.0 %"), std::string::npos);
}

TEST(PhaseName, Names)
{
    EXPECT_STREQ(phase_name(Phase::kCompute), "compute");
    EXPECT_STREQ(phase_name(Phase::kTransfer), "transfer");
    EXPECT_STREQ(phase_name(Phase::kKvStall), "kv_stall");
    EXPECT_STREQ(phase_name(Phase::kWriteback), "writeback");
}

} // namespace
} // namespace helm::telemetry
