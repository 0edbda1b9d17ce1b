/**
 * @file
 * Tests for the Chrome-trace counter rows ("ph":"C"): host-port
 * utilization pairs scaled by the fabric rate, KV-tier occupancy
 * samples, JSON escaping of hostile tier names, and the per-GPU pid
 * layout when counters and cluster records coexist — plus the other
 * two step-record consumers: the serve-run span trees and the monitor
 * feed, whose samples follow the counter rows' rule.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "kvcache/kvcache.h"
#include "model/opt.h"
#include "runtime/engine.h"
#include "runtime/scheduler.h"
#include "runtime/trace.h"
#include "telemetry/metrics.h"
#include "telemetry/monitor.h"
#include "tracing/export.h"
#include "tracing/flight_recorder.h"
#include "tracing/synthesize.h"
#include "tracing/tracer.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

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
                ++i;
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

std::size_t
count_of(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0, pos = 0;
    while ((pos = haystack.find(needle, pos)) != std::string::npos) {
        ++n;
        pos += needle.size();
    }
    return n;
}

RunResult
small_run(bool kv_tiering = false)
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.batch = 2;
    spec.repeats = 1;
    spec.shape.output_tokens = 3;
    if (kv_tiering)
        spec.kv_cache = kvcache::KvCacheConfig::tiered(0);
    auto result = simulate_inference(spec);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return std::move(result).value();
}

TEST(TraceCounters, DisabledOptionsMatchLegacyOverload)
{
    const auto result = small_run();
    // Rate 0 and no KV occupancy: default options add no counter rows,
    // so the trace is the plain duration-event form.
    const std::string json = chrome_trace_json(result.records);
    EXPECT_EQ(json, chrome_trace_json(result.records, TraceCounterOptions{}));
    EXPECT_EQ(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceCounters, HostPortUtilizationPairsPerTransfer)
{
    const auto result = small_run();
    TraceCounterOptions counters;
    counters.host_port_rate_bytes_per_s = result.h2d_rate.raw();
    ASSERT_GT(counters.host_port_rate_bytes_per_s, 0.0);

    const std::string json =
        chrome_trace_json(result.records, counters);
    EXPECT_TRUE(json_balanced(json));
    EXPECT_NE(json.find("\"name\":\"host-port utilization\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    // Every utilization rise is paired with a fall back to zero.
    const std::size_t rises = count_of(json, "host-port utilization");
    const std::size_t falls = count_of(json, "{\"utilization\":0}");
    EXPECT_GT(rises, 0u);
    EXPECT_EQ(rises % 2, 0u);
    EXPECT_EQ(falls, rises / 2);
    // Legacy duration events survive untouched alongside the counters.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceCounters, KvOccupancyRowsForTieredRuns)
{
    const auto result = small_run(/*kv_tiering=*/true);
    bool sampled = false;
    for (const auto &rec : result.records)
        sampled |= !rec.kv_occupancy.empty();
    ASSERT_TRUE(sampled);

    // Occupancy counters need no port rate — options with defaults.
    const std::string json =
        chrome_trace_json(result.records, TraceCounterOptions{});
    EXPECT_TRUE(json_balanced(json));
    EXPECT_NE(json.find("\"name\":\"KV tier occupancy (MiB)\""),
              std::string::npos);
    EXPECT_NE(json.find("\"gpu\":"), std::string::npos);
    EXPECT_NE(json.find("\"host\":"), std::string::npos);
}

TEST(TraceCounters, HostileTierNamesAreEscaped)
{
    auto result = small_run(/*kv_tiering=*/true);
    for (auto &rec : result.records) {
        for (auto &occupancy : rec.kv_occupancy) {
            if (occupancy.tier == "host")
                occupancy.tier = "we\"ird\\tier";
        }
        for (auto &traffic : rec.kv_tiers) {
            if (traffic.tier == "host")
                traffic.tier = "we\"ird\\tier";
        }
    }
    const std::string json =
        chrome_trace_json(result.records, TraceCounterOptions{});
    EXPECT_TRUE(json_balanced(json)) << "tier name broke the JSON";
    EXPECT_NE(json.find("we\\\"ird\\\\tier"), std::string::npos);
    EXPECT_EQ(json.find("we\"ird"), std::string::npos);
}

TEST(TraceCounters, ClusterPidLayoutCoexistsWithCounters)
{
    const auto result = small_run();
    auto records = result.records;
    const std::size_t single = records.size();
    records.insert(records.end(), result.records.begin(),
                   result.records.end());
    for (std::size_t i = single; i < records.size(); ++i)
        records[i].gpu_index = 1;

    TraceCounterOptions counters;
    counters.host_port_rate_bytes_per_s = result.h2d_rate.raw();
    const std::string json = chrome_trace_json(records, counters);
    EXPECT_TRUE(json_balanced(json));
    // One process row per GPU, exactly as without counters...
    EXPECT_NE(json.find("\"name\":\"GPU 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"GPU 1\""), std::string::npos);
    // ...and the counter track rides on the global pid 0.
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    std::size_t pid1_events = 0, pos = 0;
    while ((pos = json.find("\"pid\":1", pos)) != std::string::npos) {
        ++pid1_events;
        pos += 7;
    }
    EXPECT_GE(pid1_events, single);
}

TEST(TraceLayout, ThreadTracksArePinned)
{
    // The pid/tid scheme is part of the format contract (trace.h):
    // tid 0 compute, tid 1 transfers, tid 2 reserved for KV swaps,
    // KV tier tracks from tid 3 in first-seen order — even when the
    // run had no swaps.  Hand-crafted records so both tiers move bytes.
    LayerStepRecord step;
    step.compute_time = 0.001;
    step.transfer_time = 0.001;
    step.transfer_bytes = 4096;
    step.kv_read_bytes = 1024;
    step.kv_tiers.push_back({"host", 1024, 0});
    step.kv_tiers.push_back({"pmem", 0, 2048});
    step.kv_write_time = 0.0005;

    const std::string json = chrome_trace_json({step});
    EXPECT_NE(json.find("\"tid\":0,\"args\":{\"name\":\"GPU compute\"}"),
              std::string::npos);
    EXPECT_NE(
        json.find("\"tid\":1,\"args\":{\"name\":\"h2d transfers\"}"),
        std::string::npos);
    // No preemptions: the swap track stays silent but its tid stays
    // reserved — the first tier row lands at tid 3, never tid 2.
    EXPECT_EQ(json.find("KV swap (preemption)"), std::string::npos);
    EXPECT_EQ(json.find("\"tid\":2,\"args\":{\"name\":\"KV "),
              std::string::npos);
    EXPECT_NE(json.find("\"tid\":3,\"args\":{\"name\":\"KV host\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"tid\":4,\"args\":{\"name\":\"KV pmem\"}"),
              std::string::npos);
}

TEST(TraceLayout, SwapTrackUsesTheReservedTid)
{
    const auto result = small_run(/*kv_tiering=*/true);
    TraceCounterOptions counters;
    KvSwapEvent swap;
    swap.request_id = 7;
    swap.demote = true;
    swap.start = 0.5;
    swap.end = 0.75;
    swap.bytes = 4096;
    counters.kv_swaps.push_back(swap);

    const std::string json =
        chrome_trace_json(result.records, counters);
    EXPECT_TRUE(json_balanced(json));
    EXPECT_NE(
        json.find(
            "\"tid\":2,\"args\":{\"name\":\"KV swap (preemption)\"}"),
        std::string::npos);
    EXPECT_NE(json.find("KV demote r7"), std::string::npos);
}

TEST(TraceLayout, FlightRecorderRowsAndFlowArrows)
{
    tracing::FlightRecorder recorder({8, 16});
    tracing::TurnTraceInput input;
    input.turn_id = 42;
    input.session = 1;
    input.prompt_tokens = 128;
    input.output_tokens = 8;
    input.submitted = 0.0;
    input.dispatched = 0.25;
    input.first_token = 0.5;
    input.completed = 1.0;
    input.tbt = 0.0625;
    recorder.admit(tracing::build_turn_trace(input, 16));
    recorder.admit(tracing::build_shed_turn_trace(
        43, 1, 1.0, 1.25, "accept-queue-full", 16));

    const auto result = small_run();
    TraceCounterOptions counters;
    counters.flight_recorder = &recorder;
    const std::string json =
        chrome_trace_json(result.records, counters);
    EXPECT_TRUE(json_balanced(json));

    // One "requests" process at the pinned pid, one thread row per
    // retained trace in sorted order, flags suffixed to the row name.
    EXPECT_NE(json.find("\"pid\":1000,\"tid\":0,\"args\":{\"name\":"
                        "\"requests (flight recorder)\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"turn 42\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"turn 43 [shed]\""),
              std::string::npos);

    // Span events carry their phase; consecutive root children are
    // joined by s/f flow pairs whose id is the target's derived span
    // id — a pure function of (trace id, phase, seq).
    EXPECT_NE(json.find("\"cat\":\"span\""), std::string::npos);
    EXPECT_NE(json.find("\"phase\":\"queue\""), std::string::npos);
    char flow_id[32];
    std::snprintf(flow_id, sizeof(flow_id), "\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(tracing::derive_span_id(
                      42, tracing::SpanPhase::kStream, 3)));
    EXPECT_EQ(count_of(json, flow_id), 2u); // one s + one f event
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\""),
              std::string::npos);
}

TEST(TraceLayout, IdenticalInputsRenderIdenticalBytes)
{
    const auto result = small_run(/*kv_tiering=*/true);
    tracing::FlightRecorder recorder({8, 16});
    tracing::TurnTraceInput input;
    input.turn_id = 5;
    input.completed = 1.0;
    input.first_token = 0.5;
    recorder.admit(tracing::build_turn_trace(input, 16));

    TraceCounterOptions counters;
    counters.host_port_rate_bytes_per_s = result.h2d_rate.raw();
    counters.flight_recorder = &recorder;
    const std::string once = chrome_trace_json(result.records, counters);
    const std::string twice =
        chrome_trace_json(result.records, counters);
    ASSERT_FALSE(once.empty());
    EXPECT_EQ(once, twice);
}

// ---- span trees and monitor feed from a real serve run ---------------

ServingSpec
serve_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.shape.prompt_tokens = 128;
    spec.shape.output_tokens = 8;
    return spec;
}

std::vector<workload::TimedRequest>
burst(std::uint64_t n, Seconds spacing)
{
    std::vector<workload::TimedRequest> stream;
    for (std::uint64_t i = 0; i < n; ++i) {
        stream.push_back(workload::TimedRequest{
            workload::Request{i, 128, 8},
            spacing * static_cast<double>(i)});
    }
    return stream;
}

TEST(Synthesize, ServeRunYieldsValidNestedTrees)
{
    auto server =
        Server::create(serve_spec(), ServingConfig{});
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    server->enable_telemetry(true);
    ASSERT_TRUE(server->submit(burst(8, 0.25)).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();

    tracing::Tracer tracer;
    synthesize_serving_traces(tracer, *report,
                              server->serving_records());
    const Status valid = tracing::validate_all(tracer);
    EXPECT_TRUE(valid.is_ok()) << valid.to_string();
    EXPECT_EQ(tracer.recorder().stats().traces_seen,
              report->completed + report->rejected +
                  1u /* scheduler trace */);

    bool request_seen = false, scheduler_seen = false;
    for (const tracing::Trace *trace : tracer.recorder().sorted_traces()) {
        if (trace->kind == "request") {
            request_seen = true;
            // Request phases tile arrival -> completion: sum of direct
            // children plus idle equals the root wall exactly.
            const tracing::Span &root = trace->spans.front();
            Seconds phase_sum = 0.0;
            for (const tracing::Span &span : trace->spans) {
                if (span.parent_id == root.span_id)
                    phase_sum += span.duration();
            }
            EXPECT_LE(phase_sum, root.duration() + 1e-9);
        }
        if (trace->kind == "scheduler") {
            scheduler_seen = true;
            EXPECT_TRUE(trace->flags.pinned);
            EXPECT_EQ(trace->spans.front().phase, tracing::SpanPhase::kServe);
        }
    }
    EXPECT_TRUE(request_seen);
    EXPECT_TRUE(scheduler_seen);
}

TEST(Synthesize, IdenticalRunsExportIdenticalBytes)
{
    const auto run_once = [](std::string *out) {
        auto server = Server::create(serve_spec(),
                                              ServingConfig{});
        ASSERT_TRUE(server.is_ok());
        server->enable_telemetry(true);
        ASSERT_TRUE(server->submit(burst(6, 0.5)).is_ok());
        const auto report = server->serve();
        ASSERT_TRUE(report.is_ok());
        tracing::Tracer tracer;
        synthesize_serving_traces(tracer, *report,
                                  server->serving_records());
        *out = tracing::trace_json(tracer);
    };
    std::string first, second;
    run_once(&first);
    run_once(&second);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(MonitorFeed, SamplesFollowTheTraceCounterRule)
{
    // One tiered engine run, shorter than the monitor's 60 s fast
    // window, so each window mean is the mean of every sample fed.
    const auto result = small_run(/*kv_tiering=*/true);
    const double rate = result.h2d_rate.raw();
    double port_sum = 0.0;
    std::size_t port_samples = 0;
    double gpu_mib = 0.0;
    std::size_t gpu_samples = 0;
    for (const LayerStepRecord &rec : result.records) {
        const Bytes moved = rec.transfer_bytes + rec.kv_read_bytes;
        if (rec.transfer_time > 0.0 && moved > 0) {
            port_sum += static_cast<double>(moved) /
                        (rec.transfer_time * rate);
            ++port_samples;
        }
        for (const KvTierOccupancy &occupancy : rec.kv_occupancy) {
            if (occupancy.tier == "gpu") {
                gpu_mib += static_cast<double>(occupancy.bytes) /
                           (1024.0 * 1024.0);
                ++gpu_samples;
            }
        }
    }
    ASSERT_GT(port_samples, 0u);
    ASSERT_GT(gpu_samples, 0u);
    ServingReport report;
    report.makespan = result.records.back().step_end;
    ASSERT_LT(report.makespan, 60.0);

    telemetry::ServingMonitor monitor;
    feed_monitor_from_report(monitor, report, result.records, rate);
    telemetry::MetricsRegistry registry;
    monitor.record(registry);
    EXPECT_NEAR(registry.value_or("helm_window_port_utilization",
                                  {{"window", "fast"}}),
                port_sum / static_cast<double>(port_samples), 1e-9);
    EXPECT_NEAR(registry.value_or("helm_window_kv_occupancy",
                                  {{"tier", "gpu"}, {"window", "fast"}}),
                gpu_mib / static_cast<double>(gpu_samples), 1e-9);

    // Without a port rate there is no utilization to sample, exactly
    // as the Chrome trace then draws no counter row.
    telemetry::ServingMonitor unscaled;
    feed_monitor_from_report(unscaled, report, result.records, 0.0);
    telemetry::MetricsRegistry bare;
    unscaled.record(bare);
    EXPECT_FALSE(bare.has("helm_window_port_utilization"));
    EXPECT_TRUE(bare.has("helm_window_kv_occupancy"));
}

} // namespace
} // namespace helm::runtime
