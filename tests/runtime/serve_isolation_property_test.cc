/**
 * @file
 * Property test that no hidden state leaks between serves: across every
 * (scheduler, host-memory configuration) pair, a preemption-heavy
 * bursty stream served on a fresh Server, then again on another fresh
 * Server after an unrelated stream was served in between, must be
 * byte-identical on all three artifact surfaces — the full
 * ServingReport, the metrics JSON snapshot, and the chrome-trace.  The
 * arrival stream is seeded per case (splitmix of the coordinates), so
 * every pair exercises a different randomized workload while staying
 * deterministic.  The suite keeps the name it had when the engine held
 * a process-global step cache, the state this test now rules out.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "mem/host_system.h"
#include "model/opt.h"
#include "runtime/instrument.h"
#include "runtime/scheduler.h"
#include "runtime/trace.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "workload/arrival.h"

namespace helm::runtime {
namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

void
append_f(std::string &out, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    out += buf;
}

void
append_u(std::string &out, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu,",
                  static_cast<unsigned long long>(v));
    out += buf;
}

/** Exact textual image of a ServingReport: every scalar at full
 *  precision, every per-request / per-tenant / per-swap row. */
std::string
serialize_report(const ServingReport &report)
{
    std::string out;
    out.reserve(1 << 16);
    append_u(out, report.submitted);
    append_u(out, report.completed);
    append_u(out, report.rejected);
    append_u(out, report.kv_rejected);
    append_u(out, report.batches_formed);
    append_u(out, report.max_queue_depth);
    append_f(out, report.mean_batch_size);
    append_f(out, report.makespan);
    append_u(out, report.total_tokens);
    append_f(out, report.throughput);
    append_f(out, report.goodput);
    append_f(out, report.slo_attainment);
    append_u(out, report.iterations);
    append_u(out, report.preemptions);
    append_u(out, report.resumes);
    append_u(out, report.kv_demoted_bytes);
    append_u(out, report.kv_promoted_bytes);
    append_f(out, report.kv_swap_exposed_seconds);
    append_u(out, report.deadline_misses);
    append_u(out, report.starvation_events);
    append_f(out, report.jain_fairness);
    for (const std::uint64_t id : report.rejected_ids)
        append_u(out, id);
    for (const RequestMetrics &r : report.requests) {
        append_u(out, r.id);
        append_u(out, r.tenant);
        append_u(out, r.prompt_tokens);
        append_u(out, r.output_tokens);
        append_u(out, r.batch_index);
        append_f(out, r.arrival);
        append_f(out, r.queueing_delay);
        append_f(out, r.ttft);
        append_f(out, r.tbt);
        append_f(out, r.e2e_latency);
        append_f(out, r.deadline);
        append_u(out, r.preemptions);
        out += r.slo_met ? "t," : "f,";
        out += r.deadline_met ? "t,\n" : "f,\n";
    }
    for (const TenantStats &t : report.tenants) {
        append_u(out, t.tenant);
        append_u(out, t.submitted);
        append_u(out, t.completed);
        append_u(out, t.rejected);
        append_u(out, t.tokens);
        append_u(out, t.starvation_events);
        append_f(out, t.mean_ttft);
        append_f(out, t.max_queue_wait);
        out += '\n';
    }
    for (const KvSwapEvent &s : report.kv_swap_events) {
        append_u(out, s.request_id);
        append_u(out, s.tenant);
        out += s.demote ? "d," : "p,";
        append_u(out, s.bytes);
        append_f(out, s.start);
        append_f(out, s.end);
        out += '\n';
    }
    return out;
}

struct RunArtifacts
{
    std::string report;  //!< serialize_report image
    std::string metrics; //!< telemetry::json_snapshot
    std::string trace;   //!< runtime::chrome_trace_json
    std::uint64_t preemptions = 0;
};

/**
 * Three bursty tenant streams with *heterogeneous* deadlines, merged.
 * Homogeneous relative deadlines make EDF degenerate to FCFS order
 * (every later arrival also has a later deadline); a tight-deadline
 * tenant arriving mid-burst against lax running requests is what
 * forces swap-out/resume cycles — the preemption-heavy regime.
 */
std::vector<workload::TimedRequest>
make_stream(std::uint64_t seed)
{
    const double rates[3] = {14.0, 8.0, 6.0};
    const double deadlines[3] = {0.15, 0.8, 3.0};
    std::vector<std::vector<workload::TimedRequest>> streams;

    // Deterministic preemption kernel, independent of how fast the
    // memory configuration decodes: a full batch of lax long-output
    // requests at t=0, then a batch of tight-deadline requests just
    // after.  The tight batch misses the first formation (arrival >
    // 0) but lands before any config can finish a 100-token decode,
    // so under EDF it displaces the running lax batch at the first
    // iteration boundary — guaranteed swap-out/resume traffic.
    std::vector<workload::TimedRequest> lax_kernel, tight_kernel;
    for (int i = 0; i < 8; ++i) {
        workload::TimedRequest lax;
        lax.arrival = 0.0;
        lax.deadline = 1e4;
        lax.request.prompt_tokens = 128;
        lax.request.output_tokens = 100;
        lax.request.tenant = 2;
        lax_kernel.push_back(lax);
        workload::TimedRequest tight;
        tight.arrival = 1e-4;
        tight.deadline = 1e-4 + 0.15;
        tight.request.prompt_tokens = 128;
        tight.request.output_tokens = 21;
        tight.request.tenant = 0;
        tight_kernel.push_back(tight);
    }
    streams.push_back(std::move(lax_kernel));
    streams.push_back(std::move(tight_kernel));
    for (std::uint64_t t = 0; t < 3; ++t) {
        workload::ArrivalSpec arrivals;
        arrivals.kind = workload::ArrivalKind::kBursty;
        arrivals.rate = rates[t];
        arrivals.duration = 8.0;
        arrivals.burst_factor = 8.0;
        arrivals.burst_period = 2.0;
        arrivals.burst_duty = 0.25;
        arrivals.prompt_tokens = 128;
        arrivals.output_tokens = 21;
        arrivals.seed = splitmix64(seed + t);
        arrivals.deadline = deadlines[t];
        auto stream = workload::generate_arrivals(arrivals);
        EXPECT_TRUE(stream.is_ok()) << stream.status().to_string();
        for (workload::TimedRequest &timed : *stream)
            timed.request.tenant = t;
        streams.push_back(std::move(*stream));
    }
    return workload::merge_arrivals(streams);
}

/** One full serve of @p stream on a fresh Server. */
RunArtifacts
run_once(SchedulerKind scheduler, mem::ConfigKind memory,
         const std::vector<workload::TimedRequest> &stream)
{
    ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.memory = memory;
    spec.shape.prompt_tokens = 128;
    spec.shape.output_tokens = 100; // stream max (the lax kernel)

    ServingConfig config;
    config.scheduler = scheduler;
    config.tenants = 3;
    config.max_queue_delay = 0.02;
    config.max_queue_length = 1u << 16;
    // A fixed batch ceiling keeps the flash-crowd phases forming
    // full batches of the same composition and concentrates contention
    // so EDF actually preempts.
    config.auto_max_batch = false;
    config.max_batch = 8;

    auto created = Server::create(spec, config);
    EXPECT_TRUE(created.is_ok()) << created.status().to_string();
    Server server = std::move(*created);
    server.enable_telemetry(true);
    const Status submitted = server.submit(stream);
    EXPECT_TRUE(submitted.is_ok()) << submitted.to_string();
    const auto report = server.serve();
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();

    telemetry::MetricsRegistry registry;
    record_serving(registry, server.serving_spec(),
                   server.effective_max_batch(),
                   server.kv_request_slots(), *report, "serve");

    RunArtifacts artifacts;
    artifacts.report = serialize_report(*report);
    artifacts.metrics = telemetry::json_snapshot(registry);
    artifacts.trace = chrome_trace_json(server.serving_records());
    artifacts.preemptions = report->preemptions;
    return artifacts;
}

using ServeCase = std::tuple<SchedulerKind, mem::ConfigKind>;

class StepCacheProperty : public ::testing::TestWithParam<ServeCase>
{
};

TEST_P(StepCacheProperty, CacheOnOffByteIdentical)
{
    const auto [scheduler, memory] = GetParam();
    const std::uint64_t seed =
        splitmix64((static_cast<std::uint64_t>(scheduler) << 8) ^
                   static_cast<std::uint64_t>(memory));

    const auto stream = make_stream(seed);
    const RunArtifacts first = run_once(scheduler, memory, stream);
    // An unrelated stream in between: anything it left behind in the
    // process would show in the repeat below.
    const RunArtifacts unrelated =
        run_once(scheduler, memory, make_stream(~seed));
    const RunArtifacts again = run_once(scheduler, memory, stream);
    EXPECT_NE(unrelated.report, first.report);

    // Byte identity on every artifact surface.
    EXPECT_EQ(first.report, again.report);
    EXPECT_EQ(first.metrics, again.metrics);
    EXPECT_EQ(first.trace, again.trace);

    // The workload is preemption-heavy under EDF: tight-deadline
    // arrivals mid-burst preempt lax running requests, and both serves
    // must agree on every swap-out/resume cycle.
    if (scheduler == SchedulerKind::kEdf) {
        EXPECT_GT(first.preemptions, 0u);
        EXPECT_EQ(first.preemptions, again.preemptions);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersAcrossMemoryConfigs, StepCacheProperty,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::kFcfs,
                          SchedulerKind::kContinuous,
                          SchedulerKind::kEdf),
        ::testing::ValuesIn(mem::all_config_kinds())),
    [](const auto &info) {
        std::string name =
            scheduler_kind_name(std::get<0>(info.param));
        name += "_";
        name += mem::config_kind_name(std::get<1>(info.param));
        for (char &c : name) {
            if (c == '-' || c == '.' || c == '+' || c == ' ')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace helm::runtime
