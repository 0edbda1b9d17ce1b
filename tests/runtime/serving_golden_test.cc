/**
 * @file
 * Pins the iteration-level schedulers (runtime/continuous.cc) to text
 * captured before their boundary bookkeeping was made incremental:
 * every RequestMetrics, shed id, swap event, tenant stat and counter of
 * the ServingReport, rendered at %.17g — plus the serving records and
 * the time attribution when telemetry is on.  The seeded cases cover
 * what one benchmark configuration does not: continuous and edf with
 * one and three tenants, KV-bounded admission over four tenants
 * (managed tiers small enough that the slot fit rejects by KV, and a
 * prompt that never fits is shed), a preemption budget of one, exposed
 * (non-overlapped) swaps, a short admission queue that sheds, a
 * default deadline, telemetry with records, a second serve() on the
 * same Server, and a KV-bounded stream whose decode probe outgrows the
 * blocks admission charged (the probe is re-timed inside them and the
 * serve completes).  Each case is also checked to reach the path it is
 * named for.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "model/footprint.h"
#include "model/opt.h"
#include "runtime/scheduler.h"
#include "workload/arrival.h"

namespace helm::runtime {
namespace {

#include "serving_golden.inc"

void
append(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
append(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

void
render_report(std::string &out, const ServingReport &r)
{
    append(out, "report %d %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %.17g %.17g %" PRIu64
                " %.17g %.17g %.17g\n",
           static_cast<int>(r.scheduler), r.submitted, r.completed,
           r.rejected, r.kv_rejected, r.batches_formed, r.max_queue_depth,
           r.mean_batch_size, r.makespan, r.total_tokens, r.throughput,
           r.goodput, r.slo_attainment);
    append(out, "iter %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %.17g %" PRIu64 " %" PRIu64 " %.17g\n",
           r.iterations, r.preemptions, r.resumes, r.kv_demoted_bytes,
           r.kv_promoted_bytes, r.kv_swap_exposed_seconds,
           r.deadline_misses, r.starvation_events, r.jain_fairness);
    for (const RequestMetrics &m : r.requests) {
        append(out, "req %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                    " %" PRIu64,
               m.id, m.tenant, m.prompt_tokens, m.output_tokens,
               m.batch_index);
        append(out, " %.17g %.17g %.17g %.17g %.17g %d %.17g %d %" PRIu64
                    "\n",
               m.arrival, m.queueing_delay, m.ttft, m.tbt, m.e2e_latency,
               m.slo_met ? 1 : 0, m.deadline, m.deadline_met ? 1 : 0,
               m.preemptions);
    }
    out += "shed";
    for (std::uint64_t id : r.rejected_ids)
        append(out, " %" PRIu64, id);
    out += '\n';
    for (const KvSwapEvent &e : r.kv_swap_events) {
        append(out, "swap %" PRIu64 " %" PRIu64 " %d %" PRIu64
                    " %.17g %.17g\n",
               e.request_id, e.tenant, e.demote ? 1 : 0, e.bytes, e.start,
               e.end);
    }
    for (const TenantStats &t : r.tenants) {
        append(out, "tenant %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                    " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                    " %" PRIu64 " %.17g %.17g\n",
               t.tenant, t.submitted, t.completed, t.rejected, t.tokens,
               t.slo_met, t.deadline_misses, t.preemptions,
               t.starvation_events, t.mean_ttft, t.max_queue_wait);
    }
}

void
render_telemetry(std::string &out, const Server &server)
{
    for (const LayerStepRecord &rec : server.serving_records()) {
        append(out, "rec %" PRIu64 " %" PRIu64 " %" PRIu64 " %d %d %d",
               rec.gpu_index, rec.batch_index, rec.token, rec.layer,
               static_cast<int>(rec.type), static_cast<int>(rec.stage));
        append(out, " %.17g %.17g %" PRIu64 " %" PRIu64 " %" PRIu64,
               rec.compute_time, rec.transfer_time, rec.transfer_bytes,
               rec.host_bytes, rec.disk_bytes);
        append(out, " %" PRIu64 " %" PRIu64 " %.17g %.17g %.17g %.17g %.17g"
                    " %zu %zu\n",
               rec.kv_read_bytes, rec.kv_write_bytes, rec.transfer_start,
               rec.step_start, rec.step_end, rec.kv_write_time,
               rec.kv_stall_time, rec.kv_tiers.size(),
               rec.kv_occupancy.size());
    }
    const telemetry::TimeAttribution &attr = server.attribution();
    for (const auto &[name, b] : attr.buckets()) {
        append(out, "attr %s %.17g %.17g %.17g %.17g\n", name.c_str(),
               b.compute, b.transfer, b.kv_stall, b.writeback);
    }
    append(out, "wall %.17g %.17g\n", attr.idle(), attr.wall());
}

/** One tenant's arrival process; tenants are merged by arrival. */
struct TenantLoad
{
    workload::ArrivalKind kind;
    double rate;
    std::uint64_t prompt;
    std::uint64_t output;
    bool variable;
    Seconds deadline;
};

constexpr TenantLoad kChat = {workload::ArrivalKind::kPoisson, 0.8, 64, 8,
                              false, 6.0};
constexpr TenantLoad kBatchJobs = {workload::ArrivalKind::kBursty, 0.5, 384,
                                   16, true, 60.0};
constexpr TenantLoad kLax = {workload::ArrivalKind::kPoisson, 0.4, 256, 12,
                             true, 0.0};

/**
 * The KV-bounded mix, at fixed lengths.  The tiers hold 30 blocks of 16
 * tokens, the ceiling is 4, and every member is charged the batch's
 * longest context: four chats (5 blocks each) fit, three 128-token
 * prompts (9) fit but a fourth does not, two 208-token ones (14) fit,
 * and a 512-token prompt (33) never fits and is shed.  A decode probe
 * pads each member's context by up to one block past what admission
 * charged; at these lengths no admitted set outgrows the tiers that
 * way.  kKvOverrun shows what happens when one does: on 12-block tiers
 * a 376-token request (24 blocks) is admitted alone, and once its
 * context passes 368 tokens its decode probe needs 25 blocks; that
 * step is timed one token shorter, inside the 24 blocks.
 */
constexpr TenantLoad kKvMid = {workload::ArrivalKind::kPoisson, 0.4, 128, 12,
                               false, 0.0};
constexpr TenantLoad kKvLong = {workload::ArrivalKind::kBursty, 0.2, 208,
                                16, false, 40.0};
constexpr TenantLoad kKvHuge = {workload::ArrivalKind::kPoisson, 0.1, 512,
                                16, false, 20.0};
constexpr TenantLoad kKvOverrun = {workload::ArrivalKind::kPoisson, 0.2, 360,
                                   16, false, 0.0};

struct GoldenCase
{
    const char *name;
    SchedulerKind scheduler;
    std::vector<TenantLoad> tenants;
    Seconds duration;
    std::uint64_t max_batch;
    bool kv_bounded = false;
    std::uint64_t max_preemptions = 4;
    bool overlap_kv_swap = true;
    std::uint64_t max_queue_length = 1024;
    bool default_deadline = false;
    bool telemetry = false;
    int serves = 1;
    /** A decode probe outgrows the blocks admission charged. */
    bool probe_overrun = false;
    std::uint64_t kv_tier_blocks = 15; //!< per tier, when kv_bounded
};

const std::vector<GoldenCase> &
cases()
{
    using S = SchedulerKind;
    static const std::vector<GoldenCase> kCases = {
        {"cont-1t", S::kContinuous, {kLax}, 20.0, 4},
        {"cont-3t", S::kContinuous, {kChat, kBatchJobs, kLax}, 15.0, 4},
        {"cont-kv", S::kContinuous, {kChat, kKvMid, kKvLong, kKvHuge},
         30.0, 4, true},
        {"edf-1t", S::kEdf, {kBatchJobs}, 20.0, 3},
        {"edf-3t", S::kEdf, {kChat, kBatchJobs, kLax}, 15.0, 4},
        {"edf-kv", S::kEdf, {kChat, kKvMid, kKvLong, kKvHuge}, 30.0, 4,
         true},
        {"edf-preempt-once", S::kEdf, {kChat, kBatchJobs}, 20.0, 3, false,
         1},
        {"edf-exposed-swap", S::kEdf, {kChat, kBatchJobs}, 20.0, 3, false,
         4, false},
        {"edf-shed", S::kEdf, {kChat, kBatchJobs, kLax}, 15.0, 3, false, 4,
         true, 3},
        {"edf-telemetry", S::kEdf, {kChat, kBatchJobs, kLax}, 8.0, 4, false,
         4, true, 1024, false, true},
        {"cont-telemetry", S::kContinuous, {kChat, kBatchJobs, kLax}, 8.0, 4,
         false, 4, true, 1024, true, true},
        {"edf-twice", S::kEdf, {kChat, kBatchJobs, kLax}, 10.0, 4, false, 4,
         true, 1024, false, true, 2},
        {"cont-kv-probe-overrun", S::kContinuous, {kChat, kKvOverrun}, 30.0,
         4, true, 4, true, 1024, false, false, 1, true, 12},
    };
    return kCases;
}

ServingSpec
golden_spec(const GoldenCase &c)
{
    ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.shape = {64, 8};
    if (c.kv_bounded) {
        // Both tiers bounded at kv_tier_blocks blocks (see kKvMid).
        const Bytes tier = c.kv_tier_blocks * spec.model.blocks *
                           model::kv_bytes_per_block(spec.model, 1) * 16;
        auto kv = kvcache::KvCacheConfig::tiered(tier);
        kv.tiers[0].auto_capacity = false;
        kv.tiers[0].capacity = tier;
        spec.kv_cache = kv;
    }
    return spec;
}

ServingConfig
golden_config(const GoldenCase &c)
{
    ServingConfig config;
    config.scheduler = c.scheduler;
    config.auto_max_batch = false;
    config.max_batch = c.max_batch;
    config.tenants = c.tenants.size();
    config.max_preemptions = c.max_preemptions;
    config.overlap_kv_swap = c.overlap_kv_swap;
    config.max_queue_length = c.max_queue_length;
    if (c.default_deadline) {
        config.has_default_deadline = true;
        config.default_deadline = 40.0;
    }
    return config;
}

std::vector<workload::TimedRequest>
golden_stream(const GoldenCase &c, std::uint64_t seed)
{
    std::vector<std::vector<workload::TimedRequest>> streams;
    for (std::size_t t = 0; t < c.tenants.size(); ++t) {
        const TenantLoad &load = c.tenants[t];
        workload::ArrivalSpec arrivals;
        arrivals.kind = load.kind;
        arrivals.rate = load.rate;
        arrivals.duration = c.duration;
        arrivals.prompt_tokens = load.prompt;
        arrivals.output_tokens = load.output;
        arrivals.variable_lengths = load.variable;
        arrivals.deadline = load.deadline;
        arrivals.burst_period = 10.0;
        arrivals.seed = seed * 31 + t;
        auto stream = workload::generate_arrivals(arrivals);
        EXPECT_TRUE(stream.is_ok()) << stream.status().to_string();
        for (workload::TimedRequest &timed : *stream)
            timed.request.tenant = t;
        streams.push_back(std::move(*stream));
    }
    return workload::merge_arrivals(streams);
}

TEST(ServingGolden, IterationSchedulersMatchCapturedText)
{
    ASSERT_EQ(cases().size(), std::size(kGolden));
    for (std::size_t i = 0; i < cases().size(); ++i) {
        const GoldenCase &c = cases()[i];
        auto server = Server::create(golden_spec(c), golden_config(c));
        ASSERT_TRUE(server.is_ok())
            << c.name << ": " << server.status().to_string();
        if (c.telemetry)
            server->enable_telemetry(/*collect_records=*/true);

        std::string text;
        std::vector<ServingReport> reports;
        for (int serve = 0; serve < c.serves; ++serve) {
            ASSERT_TRUE(server->submit(golden_stream(c, i + 10 * serve))
                            .is_ok());
            auto report = server->serve();
            ASSERT_TRUE(report.is_ok())
                << c.name << ": " << report.status().to_string();
            render_report(text, *report);
            reports.push_back(std::move(*report));
        }
        if (c.telemetry)
            render_telemetry(text, *server);
        EXPECT_EQ(text, kGolden[i]) << c.name;

        // Each case reaches the path it is named for.
        const ServingReport &r = reports.front();
        EXPECT_GT(r.completed, 0u) << c.name;
        EXPECT_EQ(r.kv_rejected > 0, c.kv_bounded && !c.probe_overrun)
            << c.name;
        if (c.probe_overrun) {
            // A request whose blocks fill both tiers was served.
            bool filled = false;
            for (const RequestMetrics &m : r.requests) {
                filled |= (m.prompt_tokens + m.output_tokens + 15) / 16 ==
                          2 * c.kv_tier_blocks;
            }
            EXPECT_TRUE(filled) << c.name;
        }
        const bool edf = c.scheduler == SchedulerKind::kEdf;
        EXPECT_EQ(r.preemptions > 0, edf && c.tenants.size() > 1) << c.name;
        EXPECT_EQ(r.rejected > r.kv_rejected, c.max_queue_length < 1024)
            << c.name;
        if (!c.overlap_kv_swap) {
            EXPECT_GT(r.kv_swap_exposed_seconds, 0.0) << c.name;
        }
        EXPECT_EQ(r.tenants.size(), c.tenants.size()) << c.name;
        if (c.max_preemptions == 1) {
            std::uint64_t at_budget = 0;
            for (const RequestMetrics &m : r.requests) {
                EXPECT_LE(m.preemptions, 1u) << c.name;
                at_budget += m.preemptions;
            }
            EXPECT_GT(at_budget, 0u) << c.name;
        }
        if (c.default_deadline) {
            for (const RequestMetrics &m : r.requests)
                EXPECT_GT(m.deadline, 0.0) << c.name << " " << m.id;
        }
        if (c.telemetry) {
            EXPECT_FALSE(server->serving_records().empty()) << c.name;
        }
    }
}

} // namespace
} // namespace helm::runtime
