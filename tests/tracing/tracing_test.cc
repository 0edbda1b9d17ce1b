/**
 * @file
 * Tests for the tracing subsystem (src/tracing/): derived span ids,
 * the TraceBuilder span cap, flight-recorder retention policy,
 * span-tree validation, the helm-trace-v1 export, and the gateway's
 * turn traces — including the acceptance claim that a turn's spans
 * nest exactly and the per-phase durations plus idle tile the root
 * wall.  The serve-run span trees are tested with the other
 * step-record consumers in tests/runtime/trace_counter_test.cc.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/monitor.h"
#include "tracing/export.h"
#include "tracing/synthesize.h"
#include "tracing/tracer.h"

namespace helm::tracing {
namespace {

constexpr double kTol = 1e-9;

// ---- derived span ids ------------------------------------------------

TEST(SpanId, DeterministicAndDistinct)
{
    const std::uint64_t a = derive_span_id(7, SpanPhase::kTurn, 0);
    EXPECT_EQ(a, derive_span_id(7, SpanPhase::kTurn, 0));
    EXPECT_NE(a, derive_span_id(7, SpanPhase::kTurn, 1));
    EXPECT_NE(a, derive_span_id(7, SpanPhase::kQueue, 0));
    EXPECT_NE(a, derive_span_id(8, SpanPhase::kTurn, 0));
    // 0 is reserved for "no parent".
    EXPECT_NE(a, 0u);
}

// ---- TraceBuilder ----------------------------------------------------

TEST(TraceBuilder, CapsSpansAndCountsDrops)
{
    TraceBuilder builder(1, "turn", 2);
    const std::uint64_t root =
        builder.add_span(SpanPhase::kTurn, "turn", 0.0, 4.0, 0);
    builder.add_span(SpanPhase::kQueue, "queue", 0.0, 1.0, root);
    // Past the cap: counted, not stored, but the id still derives.
    const std::uint64_t dropped =
        builder.add_span(SpanPhase::kStream, "stream", 1.0, 4.0, root);
    EXPECT_NE(dropped, 0u);

    const Trace trace = builder.take();
    EXPECT_EQ(trace.spans.size(), 2u);
    EXPECT_EQ(trace.dropped_spans, 1u);
    EXPECT_EQ(trace.spans.front().span_id,
              derive_span_id(1, SpanPhase::kTurn, 0));
}

// ---- flight recorder -------------------------------------------------

Trace
tiny_trace(std::uint64_t id, Seconds tbt, OutlierFlags flags = {})
{
    TraceBuilder builder(id, "turn", 4);
    builder.add_span(SpanPhase::kTurn, "turn", 0.0, 1.0, 0);
    builder.trace().flags = flags;
    builder.trace().tbt = tbt;
    return builder.take();
}

TEST(FlightRecorder, FlaggedPoolEvictsOldestFirst)
{
    // max_traces 4 -> 2 flagged slots + 2 outlier slots.
    FlightRecorder recorder({4, 8});
    OutlierFlags shed;
    shed.shed = true;
    for (std::uint64_t id = 0; id < 3; ++id)
        recorder.admit(tiny_trace(id, 0.0, shed));

    EXPECT_EQ(recorder.retained(), 2u);
    EXPECT_EQ(recorder.stats().evicted, 1u);
    const auto traces = recorder.sorted_traces();
    ASSERT_EQ(traces.size(), 2u);
    // Trace 0 (oldest) was evicted; 1 and 2 remain.
    EXPECT_EQ(traces[0]->trace_id, 1u);
    EXPECT_EQ(traces[1]->trace_id, 2u);
}

TEST(FlightRecorder, OutlierPoolKeepsSlowest)
{
    FlightRecorder recorder({4, 8});
    recorder.admit(tiny_trace(0, 0.010));
    recorder.admit(tiny_trace(1, 0.030));
    // Pool full (2 outlier slots).  Faster than both: discarded.
    EXPECT_FALSE(recorder.would_retain({}, 0.005));
    recorder.admit(tiny_trace(2, 0.005));
    EXPECT_EQ(recorder.retained(), 2u);
    // Slower than the minimum: displaces trace 0.
    EXPECT_TRUE(recorder.would_retain({}, 0.020));
    recorder.admit(tiny_trace(3, 0.020));

    const auto traces = recorder.sorted_traces();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0]->trace_id, 1u);
    EXPECT_EQ(traces[1]->trace_id, 3u);
    EXPECT_EQ(recorder.stats().evicted, 1u);
}

TEST(FlightRecorder, TbtTieKeepsTheIncumbent)
{
    FlightRecorder recorder({4, 8});
    recorder.admit(tiny_trace(10, 0.020));
    recorder.admit(tiny_trace(11, 0.020));
    // Equal TBT must not displace — retention cannot depend on replay
    // order among ties.
    EXPECT_FALSE(recorder.would_retain({}, 0.020));
    recorder.admit(tiny_trace(12, 0.020));

    const auto traces = recorder.sorted_traces();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0]->trace_id, 10u);
    EXPECT_EQ(traces[1]->trace_id, 11u);
}

TEST(FlightRecorder, FlaggedAlwaysRetains)
{
    FlightRecorder recorder({4, 8});
    recorder.admit(tiny_trace(0, 1.0));
    recorder.admit(tiny_trace(1, 1.0));
    OutlierFlags shed;
    shed.shed = true;
    // Flagged traces bypass the TBT competition entirely.
    EXPECT_TRUE(recorder.would_retain(shed, 0.0));
    recorder.admit(tiny_trace(2, 0.0, shed));
    EXPECT_EQ(recorder.retained(), 3u);
    EXPECT_EQ(recorder.stats().flagged_seen, 1u);
}

TEST(FlightRecorder, CountSkippedAccountsWithoutStoring)
{
    FlightRecorder recorder({4, 8});
    recorder.count_skipped(4, {});
    EXPECT_EQ(recorder.retained(), 0u);
    EXPECT_EQ(recorder.stats().traces_seen, 1u);
    EXPECT_EQ(recorder.stats().spans_seen, 4u);
}

TEST(FlightRecorder, MemoryBoundHoldsUnderLongDrives)
{
    FlightRecorder recorder({8, 4});
    OutlierFlags shed;
    shed.shed = true;
    for (std::uint64_t id = 0; id < 10000; ++id) {
        const OutlierFlags flags = id % 7 == 0 ? shed : OutlierFlags{};
        const Seconds tbt = 0.001 * static_cast<double>(id % 97);
        if (recorder.would_retain(flags, tbt))
            recorder.admit(tiny_trace(id, tbt, flags));
        else
            recorder.count_skipped(1, flags);
    }
    EXPECT_EQ(recorder.stats().traces_seen, 10000u);
    EXPECT_LE(recorder.retained(), 8u);
    EXPECT_LE(recorder.retained_spans(),
              recorder.retained() *
                  recorder.config().max_spans_per_trace);
}

// ---- span-tree validation --------------------------------------------

TEST(ValidateTrace, AcceptsTilingTree)
{
    TraceBuilder builder(1, "turn", 8);
    const std::uint64_t root =
        builder.add_span(SpanPhase::kTurn, "turn", 0.0, 10.0, 0);
    builder.add_span(SpanPhase::kQueue, "queue", 0.0, 2.0, root);
    builder.add_span(SpanPhase::kDispatch, "dispatch", 2.0, 5.0, root);
    builder.add_span(SpanPhase::kStream, "stream", 6.0, 10.0, root);
    EXPECT_TRUE(validate_trace(builder.trace()).is_ok());
}

TEST(ValidateTrace, RejectsChildEscapingParent)
{
    TraceBuilder builder(1, "turn", 8);
    const std::uint64_t root =
        builder.add_span(SpanPhase::kTurn, "turn", 0.0, 10.0, 0);
    builder.add_span(SpanPhase::kQueue, "queue", 0.0, 11.0, root);
    EXPECT_FALSE(validate_trace(builder.trace()).is_ok());
}

TEST(ValidateTrace, RejectsUnknownParent)
{
    TraceBuilder builder(1, "turn", 8);
    builder.add_span(SpanPhase::kTurn, "turn", 0.0, 10.0, 0);
    builder.add_span(SpanPhase::kQueue, "queue", 0.0, 1.0, 0xdead);
    EXPECT_FALSE(validate_trace(builder.trace()).is_ok());
}

TEST(ValidateTrace, RejectsOverlappingRootChildren)
{
    TraceBuilder builder(1, "turn", 8);
    const std::uint64_t root =
        builder.add_span(SpanPhase::kTurn, "turn", 0.0, 10.0, 0);
    builder.add_span(SpanPhase::kQueue, "queue", 0.0, 5.0, root);
    builder.add_span(SpanPhase::kStream, "stream", 4.0, 9.0, root);
    EXPECT_FALSE(validate_trace(builder.trace()).is_ok());
}

TEST(ValidateTrace, ServeRootSkipsTheTilingCheck)
{
    // Scheduler batch windows may pipeline; only containment applies.
    TraceBuilder builder(0, "scheduler", 8);
    const std::uint64_t root =
        builder.add_span(SpanPhase::kServe, "gpu 0", 0.0, 10.0, 0);
    builder.add_span(SpanPhase::kBatch, "batch 0", 0.0, 6.0, root);
    builder.add_span(SpanPhase::kBatch, "batch 1", 4.0, 10.0, root);
    EXPECT_TRUE(validate_trace(builder.trace()).is_ok());
}

TEST(ValidateTrace, RejectsEmptyAndNonRootFirst)
{
    Trace empty;
    empty.trace_id = 3;
    EXPECT_FALSE(validate_trace(empty).is_ok());

    TraceBuilder builder(1, "turn", 8);
    builder.add_span(SpanPhase::kQueue, "queue", 0.0, 1.0, 0xbeef);
    EXPECT_FALSE(validate_trace(builder.trace()).is_ok());
}

// ---- turn-trace synthesis --------------------------------------------

TurnTraceInput
turn_input()
{
    TurnTraceInput input;
    input.turn_id = 42;
    input.session = 7;
    input.replica = 1;
    input.prompt_tokens = 128;
    input.output_tokens = 21;
    input.submitted = 1.0;
    input.dispatched = 1.5;
    input.first_token = 2.25;
    input.completed = 3.0;
    input.tbt = 0.0375;
    return input;
}

TEST(TurnTrace, PhasesTileTheClientWall)
{
    const Trace trace = build_turn_trace(turn_input(), 64);
    ASSERT_TRUE(validate_trace(trace).is_ok());
    ASSERT_EQ(trace.spans.size(), kTurnTraceSpans);

    const Span &root = trace.spans.front();
    Seconds phase_sum = 0.0;
    for (std::size_t s = 1; s < trace.spans.size(); ++s) {
        EXPECT_EQ(trace.spans[s].parent_id, root.span_id);
        phase_sum += trace.spans[s].duration();
    }
    // queue + dispatch + stream == submit -> completion, no idle gap.
    EXPECT_NEAR(phase_sum, root.duration(), kTol);
    EXPECT_NEAR(root.start, 1.0, kTol);
    EXPECT_NEAR(root.end, 3.0, kTol);
    EXPECT_FALSE(trace.flags.any());
    EXPECT_NEAR(trace.tbt, 0.0375, kTol);
}

TEST(TurnTrace, ShedTurnIsFlaggedWithReason)
{
    const Trace trace =
        build_shed_turn_trace(9, 3, 1.0, 1.25, "accept-queue-full", 64);
    ASSERT_TRUE(validate_trace(trace).is_ok());
    EXPECT_TRUE(trace.flags.shed);
    ASSERT_GE(trace.spans.size(), 2u);
    bool reason_found = false;
    for (const auto &[key, value] : trace.spans[1].attrs)
        reason_found |=
            key == "shed_reason" && value == "accept-queue-full";
    EXPECT_TRUE(reason_found);
}

// ---- helm-trace-v1 export --------------------------------------------

TEST(TraceJson, SchemaStatsAndHexIds)
{
    Tracer tracer({4, 8});
    tracer.finish(tiny_trace(5, 0.010));
    tracer.observe(4, {});

    const std::string json = trace_json(tracer);
    EXPECT_NE(json.find("\"schema\":\"helm-trace-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traces_seen\":2"), std::string::npos);
    EXPECT_NE(json.find("\"retained\":1"), std::string::npos);
    EXPECT_NE(json.find("\"capacity_traces\":4"), std::string::npos);
    EXPECT_NE(json.find("\"parent_id\":\"0x0\""), std::string::npos);
    // Span ids render as hex strings (64-bit ids break JSON parsers).
    char expected[32];
    std::snprintf(expected, sizeof(expected), "\"span_id\":\"0x%llx\"",
                  static_cast<unsigned long long>(
                      derive_span_id(5, SpanPhase::kTurn, 0)));
    EXPECT_NE(json.find(expected), std::string::npos);
}

TEST(TracerMetrics, RecordEmitsTheTraceFamily)
{
    Tracer tracer({4, 8});
    tracer.finish(tiny_trace(5, 0.010));
    telemetry::MetricsRegistry registry;
    tracer.record(registry);
    EXPECT_DOUBLE_EQ(registry.value_or("helm_trace_traces_total"), 1.0);
    EXPECT_DOUBLE_EQ(registry.value_or("helm_trace_retained"), 1.0);
    EXPECT_DOUBLE_EQ(registry.value_or("helm_trace_capacity_traces"),
                     4.0);
}

} // namespace
} // namespace helm::tracing
