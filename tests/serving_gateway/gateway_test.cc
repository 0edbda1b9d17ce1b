/**
 * @file
 * Unit tests for the serving gateway (src/serving_gateway/): admission
 * policy, the session slab, session routing, end-to-end streaming
 * through a real ServingBackend, and the closed-loop driver.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/helm.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/monitor.h"
#include "tracing/export.h"
#include "tracing/tracer.h"

namespace helm::gateway {
namespace {

// ---- admission -------------------------------------------------------

TEST(Admission, ValidateNamesTheBrokenKnob)
{
    AdmissionConfig config;
    EXPECT_TRUE(config.validate().is_ok());

    config.accept_queue = 0;
    EXPECT_FALSE(config.validate().is_ok());

    config = AdmissionConfig{};
    config.max_sessions = 0;
    EXPECT_FALSE(config.validate().is_ok());

    config = AdmissionConfig{};
    config.context_block = 0;
    EXPECT_FALSE(config.validate().is_ok());

    config = AdmissionConfig{};
    config.max_context = 32;
    config.context_block = 64; // cap below one block
    EXPECT_FALSE(config.validate().is_ok());
}

TEST(Admission, ChargeContextRoundsUpToBlocks)
{
    AdmissionConfig config;
    config.max_context = 4096;
    config.context_block = 64;
    const AdmissionControl admission(config);

    EXPECT_EQ(admission.charge_context(0, 1).value(), 64u);
    EXPECT_EQ(admission.charge_context(0, 64).value(), 64u);
    EXPECT_EQ(admission.charge_context(0, 65).value(), 128u);
    // Multi-turn growth: 149 tokens of history + a 128-token prompt.
    EXPECT_EQ(admission.charge_context(149, 128).value(), 320u);
}

TEST(Admission, ChargeContextEnforcesTheCap)
{
    AdmissionConfig config;
    config.max_context = 128;
    config.context_block = 64;
    const AdmissionControl admission(config);

    EXPECT_TRUE(admission.charge_context(64, 64).has_value());
    EXPECT_FALSE(admission.charge_context(64, 65).has_value());
    EXPECT_FALSE(admission.charge_context(128, 1).has_value());
}

TEST(Admission, BoundsAndRejectCounting)
{
    AdmissionConfig config;
    config.accept_queue = 2;
    config.max_sessions = 3;
    AdmissionControl admission(config);

    EXPECT_TRUE(admission.admit_turn(0));
    EXPECT_TRUE(admission.admit_turn(1));
    EXPECT_FALSE(admission.admit_turn(2));
    EXPECT_TRUE(admission.admit_session(2));
    EXPECT_FALSE(admission.admit_session(3));

    admission.count_reject(RejectReason::kAcceptQueueFull);
    admission.count_reject(RejectReason::kAcceptQueueFull);
    admission.count_reject(RejectReason::kBackendShed);
    const auto &rejects = admission.rejects();
    EXPECT_EQ(rejects[static_cast<std::size_t>(
                  RejectReason::kAcceptQueueFull)],
              2u);
    EXPECT_EQ(
        rejects[static_cast<std::size_t>(RejectReason::kBackendShed)],
        1u);
    EXPECT_EQ(
        rejects[static_cast<std::size_t>(RejectReason::kSessionLimit)],
        0u);
}

TEST(Admission, ReasonNamesAreMetricLabels)
{
    EXPECT_STREQ(reject_reason_name(RejectReason::kAcceptQueueFull),
                 "accept_queue_full");
    EXPECT_STREQ(reject_reason_name(RejectReason::kSessionLimit),
                 "session_limit");
    EXPECT_STREQ(reject_reason_name(RejectReason::kContextOverflow),
                 "context_overflow");
    EXPECT_STREQ(reject_reason_name(RejectReason::kBackendShed),
                 "backend_shed");
}

// ---- session table ---------------------------------------------------

TEST(SessionTable, OpenFindClose)
{
    SessionTable table;
    const SessionId id = table.open(2, 1.5);
    ASSERT_NE(id, kInvalidSession);
    Session *session = table.find(id);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->id, id);
    EXPECT_EQ(session->replica, 2u);
    EXPECT_DOUBLE_EQ(session->opened_at, 1.5);
    EXPECT_EQ(table.active(), 1u);

    table.close(id);
    EXPECT_EQ(table.find(id), nullptr);
    EXPECT_EQ(table.active(), 0u);
    EXPECT_EQ(table.opened_total(), 1u);
    EXPECT_EQ(table.closed_total(), 1u);

    table.close(id); // idempotent
    EXPECT_EQ(table.closed_total(), 1u);
}

TEST(SessionTable, StaleHandleCannotReachReusedSlot)
{
    SessionTable table;
    const SessionId first = table.open(0, 0.0);
    table.close(first);
    const SessionId second = table.open(1, 2.0);
    EXPECT_NE(first, second);
    EXPECT_EQ(table.find(first), nullptr);
    ASSERT_NE(table.find(second), nullptr);
    EXPECT_EQ(table.find(second)->replica, 1u);
}

// ---- router ----------------------------------------------------------

std::vector<ReplicaLoad>
flat_loads(std::size_t replicas)
{
    return std::vector<ReplicaLoad>(replicas);
}

TEST(Router, RoundRobinCycles)
{
    ReplicaRouter router(RouterPolicy::kRoundRobin, 3);
    const auto loads = flat_loads(3);
    std::vector<std::uint32_t> placed;
    for (SessionId s = 1; s <= 6; ++s)
        placed.push_back(router.route(s, loads));
    EXPECT_EQ(placed, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2}));
}

TEST(Router, LeastLoadedPicksMinQueuedPlusInflight)
{
    ReplicaRouter router(RouterPolicy::kLeastLoaded, 3);
    std::vector<ReplicaLoad> loads(3);
    loads[0].queued = 3;
    loads[0].inflight = 2;
    loads[1].queued = 1;
    loads[1].inflight = 1;
    loads[2].queued = 0;
    loads[2].inflight = 7;
    EXPECT_EQ(router.route(1, loads), 1u);
    loads[2].queued = 1;
    loads[2].inflight = 1; // tie with replica 1 -> lowest index wins
    EXPECT_EQ(router.route(2, loads), 1u);
}

TEST(Router, HashAffinityIsStableAndInRange)
{
    ReplicaRouter router(RouterPolicy::kHashAffinity, 4);
    const auto loads = flat_loads(4);
    std::vector<bool> hit(4, false);
    for (SessionId s = 1; s <= 256; ++s) {
        const std::uint32_t first = router.route(s, loads);
        ASSERT_LT(first, 4u);
        EXPECT_EQ(router.route(s, loads), first) << "unstable for " << s;
        hit[first] = true;
    }
    for (std::size_t r = 0; r < hit.size(); ++r)
        EXPECT_TRUE(hit[r]) << "replica " << r << " never chosen";
}

TEST(Router, PolicyNamesRoundTrip)
{
    for (RouterPolicy policy :
         {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
          RouterPolicy::kHashAffinity}) {
        const auto parsed =
            parse_router_policy(router_policy_name(policy));
        ASSERT_TRUE(parsed.is_ok());
        EXPECT_EQ(*parsed, policy);
    }
    EXPECT_TRUE(parse_router_policy("round-robin").is_ok());
    EXPECT_TRUE(parse_router_policy("least-loaded").is_ok());
    EXPECT_FALSE(parse_router_policy("random").is_ok());
}

// ---- gateway end to end against a real backend -----------------------

runtime::ServingSpec
small_spec(std::uint64_t max_context)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.shape.prompt_tokens = max_context;
    spec.shape.output_tokens = 8;
    return spec;
}

runtime::ServingConfig
greedy_backend_config()
{
    runtime::ServingConfig config;
    config.max_queue_delay = 0.0;
    config.max_queue_length = 1u << 20;
    return config;
}

/** One replica + gateway wired to a fresh simulator. */
struct Fixture
{
    sim::Simulator sim;
    std::vector<runtime::Server> servers;
    std::unique_ptr<Gateway> gateway;

    explicit Fixture(GatewayConfig config, std::size_t replicas = 1)
    {
        std::vector<runtime::ServingBackend *> backends;
        servers.reserve(replicas);
        for (std::size_t r = 0; r < replicas; ++r) {
            auto created = runtime::Server::create(
                small_spec(config.admission.max_context),
                greedy_backend_config());
            EXPECT_TRUE(created.is_ok())
                << created.status().to_string();
            servers.push_back(std::move(*created));
        }
        for (auto &server : servers)
            backends.push_back(&server);
        gateway =
            std::make_unique<Gateway>(sim, config, std::move(backends));
    }
};

TEST(Gateway, StreamsEveryTokenThenCompletes)
{
    GatewayConfig config;
    config.admission.max_context = 1024;
    Fixture fx(config);

    const OpenOutcome open = fx.gateway->open_session();
    ASSERT_TRUE(open.admitted);

    std::vector<StreamEvent::Kind> kinds;
    std::vector<Seconds> times;
    std::vector<std::uint64_t> indices;
    Seconds clock_at_completion = -1.0;
    TurnMetrics metrics;
    const SubmitOutcome submit = fx.gateway->submit_turn(
        open.session, 100, 4, [&](const StreamEvent &event) {
            kinds.push_back(event.kind);
            times.push_back(event.time);
            indices.push_back(event.token_index);
            if (event.kind == StreamEvent::Kind::kCompleted) {
                ASSERT_NE(event.metrics, nullptr);
                metrics = *event.metrics;
                clock_at_completion = fx.sim.now();
            }
        });
    ASSERT_TRUE(submit.admitted);
    fx.sim.run();

    // kAccepted, kFirstToken, 3x kToken, kCompleted.
    ASSERT_EQ(kinds.size(), 6u);
    EXPECT_EQ(kinds.front(), StreamEvent::Kind::kAccepted);
    EXPECT_EQ(kinds[1], StreamEvent::Kind::kFirstToken);
    EXPECT_EQ(kinds[2], StreamEvent::Kind::kToken);
    EXPECT_EQ(kinds[3], StreamEvent::Kind::kToken);
    EXPECT_EQ(kinds[4], StreamEvent::Kind::kToken);
    EXPECT_EQ(kinds.back(), StreamEvent::Kind::kCompleted);

    // The token timeline: token 0 at the first-token time, token i at
    // first_token + i*tbt capped at completion and clamped monotone,
    // the last token at completion; kCompleted fires on the clock at
    // the completion time.
    EXPECT_EQ(times[0], metrics.submitted);
    EXPECT_EQ(times[1], std::max(metrics.first_token, metrics.dispatched));
    Seconds prev = times[1];
    for (std::uint64_t i = 1; i + 1 < 4; ++i) {
        const Seconds expected = std::max(
            prev, std::min(metrics.first_token +
                               static_cast<double>(i) * metrics.tbt,
                           metrics.completed));
        EXPECT_EQ(times[1 + i], expected) << "token " << i;
        prev = expected;
    }
    EXPECT_EQ(times[4], metrics.completed);
    EXPECT_EQ(times[5], metrics.completed);
    EXPECT_EQ(clock_at_completion, metrics.completed);
    EXPECT_EQ(indices[1], 0u);
    EXPECT_EQ(indices[2], 1u);
    EXPECT_EQ(indices[4], 3u);
    EXPECT_EQ(indices[5], 3u);
    EXPECT_GT(metrics.tbt, 0.0);
    EXPECT_LT(times[1], times[4]);

    EXPECT_GT(metrics.ttft, 0.0);
    EXPECT_GE(metrics.e2e, metrics.ttft);
    EXPECT_EQ(metrics.prompt_tokens, 128u); // 100 rounded to the block
    EXPECT_EQ(metrics.output_tokens, 4u);

    const GatewayStats &stats = fx.gateway->stats();
    EXPECT_EQ(stats.turns_completed, 1u);
    EXPECT_EQ(stats.tokens_delivered, 4u);
    EXPECT_EQ(stats.dispatch_windows, 1u);
    EXPECT_TRUE(fx.gateway->health().is_ok());

    // Context accounting: padded prompt + generated tokens.
    const Session *session =
        fx.gateway->sessions().find(open.session);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->context_tokens, 132u);
    EXPECT_EQ(session->turns_completed, 1u);
    EXPECT_EQ(session->inflight, 0u);
}

TEST(Gateway, CoalescedStreamDeliversFirstTokenAndCompletion)
{
    GatewayConfig config;
    config.admission.max_context = 1024;
    config.per_token_stream = false;
    Fixture fx(config);

    const OpenOutcome open = fx.gateway->open_session();
    ASSERT_TRUE(open.admitted);
    std::vector<StreamEvent::Kind> kinds;
    ASSERT_TRUE(fx.gateway
                    ->submit_turn(open.session, 100, 4,
                                  [&](const StreamEvent &event) {
                                      kinds.push_back(event.kind);
                                  })
                    .admitted);
    fx.sim.run();
    EXPECT_EQ(kinds,
              (std::vector<StreamEvent::Kind>{
                  StreamEvent::Kind::kAccepted,
                  StreamEvent::Kind::kFirstToken,
                  StreamEvent::Kind::kCompleted}));
    EXPECT_EQ(fx.gateway->stats().tokens_delivered, 4u);
}

TEST(Gateway, ContextOverflowShedsTheTurn)
{
    GatewayConfig config;
    config.admission.max_context = 128;
    Fixture fx(config);

    const OpenOutcome open = fx.gateway->open_session();
    ASSERT_TRUE(open.admitted);
    ASSERT_TRUE(
        fx.gateway->submit_turn(open.session, 100, 4, nullptr).admitted);
    fx.sim.run();

    // Context is now 132 of 128: the next turn cannot fit.
    const SubmitOutcome second =
        fx.gateway->submit_turn(open.session, 1, 1, nullptr);
    EXPECT_FALSE(second.admitted);
    EXPECT_EQ(second.reason, RejectReason::kContextOverflow);
    EXPECT_EQ(fx.gateway->admission().rejects()[static_cast<std::size_t>(
                  RejectReason::kContextOverflow)],
              1u);
}

TEST(Gateway, AcceptQueueBoundSheds)
{
    GatewayConfig config;
    config.admission.max_context = 1024;
    config.admission.accept_queue = 1;
    Fixture fx(config);

    const OpenOutcome s1 = fx.gateway->open_session();
    const OpenOutcome s2 = fx.gateway->open_session();
    ASSERT_TRUE(s1.admitted && s2.admitted);

    ASSERT_TRUE(
        fx.gateway->submit_turn(s1.session, 64, 2, nullptr).admitted);
    // The dispatch event has not run yet, so the queue is at its bound.
    const SubmitOutcome rejected =
        fx.gateway->submit_turn(s2.session, 64, 2, nullptr);
    EXPECT_FALSE(rejected.admitted);
    EXPECT_EQ(rejected.reason, RejectReason::kAcceptQueueFull);

    fx.sim.run();
    EXPECT_EQ(fx.gateway->stats().turns_completed, 1u);
}

TEST(Gateway, SessionLimitAndStaleHandles)
{
    GatewayConfig config;
    config.admission.max_context = 1024;
    config.admission.max_sessions = 1;
    Fixture fx(config);

    const OpenOutcome first = fx.gateway->open_session();
    ASSERT_TRUE(first.admitted);
    const OpenOutcome second = fx.gateway->open_session();
    EXPECT_FALSE(second.admitted);
    EXPECT_EQ(second.reason, RejectReason::kSessionLimit);

    fx.gateway->close_session(first.session);
    const OpenOutcome third = fx.gateway->open_session();
    ASSERT_TRUE(third.admitted);

    // The closed handle must not submit into the reused slot.
    const SubmitOutcome stale =
        fx.gateway->submit_turn(first.session, 64, 2, nullptr);
    EXPECT_FALSE(stale.admitted);
}

TEST(Gateway, RoutesSessionsAcrossReplicas)
{
    GatewayConfig config;
    config.admission.max_context = 1024;
    config.router = RouterPolicy::kRoundRobin;
    Fixture fx(config, 2);

    for (int i = 0; i < 4; ++i) {
        const OpenOutcome open = fx.gateway->open_session();
        ASSERT_TRUE(open.admitted);
        ASSERT_TRUE(fx.gateway->submit_turn(open.session, 64, 2, nullptr)
                        .admitted);
    }
    fx.sim.run();
    const GatewayStats &stats = fx.gateway->stats();
    EXPECT_EQ(stats.turns_completed, 4u);
    ASSERT_EQ(stats.routed_per_replica.size(), 2u);
    EXPECT_EQ(stats.routed_per_replica[0], 2u);
    EXPECT_EQ(stats.routed_per_replica[1], 2u);
}

// ---- closed-loop driver ----------------------------------------------

DriverConfig
small_driver()
{
    DriverConfig config;
    config.clients = 8;
    config.target_requests = 200;
    config.turns_per_session = 3;
    config.mean_think = 0.01;
    config.prompt_tokens = 64;
    config.output_tokens = 4;
    config.seed = 11;
    return config;
}

struct DriveOutcome
{
    DriverReport report;
    GatewayStats stats;
    std::string metrics_json; //!< monitor + tracer snapshot, if observed
    std::string trace_json;   //!< helm-trace-v1, if observed
};

/** One drive; when @p observed, a tracer + monitor ride along and the
 *  outcome carries their metrics snapshot and trace JSON. */
DriveOutcome
drive_with_stats(std::uint64_t seed, bool observed = false)
{
    GatewayConfig config;
    config.admission.max_context = 1024;
    Fixture fx(config, 2);
    tracing::Tracer tracer;
    telemetry::ServingMonitor monitor;
    if (observed)
        fx.gateway->set_observability({&tracer, &monitor});
    DriverConfig driver = small_driver();
    driver.seed = seed;
    auto report = run_closed_loop(fx.sim, *fx.gateway, driver);
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();
    DriveOutcome outcome{std::move(report).value(), fx.gateway->stats(),
                         {}, {}};
    if (observed) {
        monitor.finish(outcome.report.sim_makespan);
        telemetry::MetricsRegistry registry;
        monitor.record(registry);
        tracer.record(registry);
        outcome.metrics_json = telemetry::json_snapshot(registry);
        outcome.trace_json = tracing::trace_json(tracer);
    }
    return outcome;
}

DriverReport
drive_once(std::uint64_t seed)
{
    return drive_with_stats(seed).report;
}

TEST(Driver, ReachesTheTargetAndReportsSamples)
{
    const DriverReport report = drive_once(11);
    EXPECT_GE(report.completed, report.target_requests);
    EXPECT_GE(report.attempts, report.completed);
    EXPECT_EQ(report.ttft.size(), report.completed);
    EXPECT_EQ(report.e2e.size(), report.completed);
    EXPECT_GT(report.sim_makespan, 0.0);
    EXPECT_GT(report.events_executed, 0u);
    for (const double sample : report.ttft)
        ASSERT_TRUE(std::isfinite(sample) && sample > 0.0);
    const double p50 = percentile_nearest_rank(report.e2e, 50.0);
    const double p99 = percentile_nearest_rank(report.e2e, 99.0);
    EXPECT_GE(p99, p50);
}

TEST(Driver, SameSeedSameVirtualRun)
{
    // Two drives at one seed share no state: the simulated run, its DES
    // event count, and what an attached tracer and monitor export are
    // identical.
    const DriveOutcome a = drive_with_stats(17, /*observed=*/true);
    const DriveOutcome b = drive_with_stats(17, /*observed=*/true);

    EXPECT_EQ(a.report.completed, b.report.completed);
    EXPECT_EQ(a.report.attempts, b.report.attempts);
    EXPECT_EQ(a.report.retries, b.report.retries);
    EXPECT_EQ(a.report.parked_on_budget, b.report.parked_on_budget);
    EXPECT_EQ(a.report.sim_makespan, b.report.sim_makespan);
    EXPECT_EQ(a.report.events_executed, b.report.events_executed);
    EXPECT_EQ(a.report.ttft, b.report.ttft);
    EXPECT_EQ(a.report.tbt, b.report.tbt);
    EXPECT_EQ(a.report.e2e, b.report.e2e);
    EXPECT_EQ(a.report.queue_wait, b.report.queue_wait);

    EXPECT_EQ(a.stats.turns_submitted, b.stats.turns_submitted);
    EXPECT_EQ(a.stats.turns_accepted, b.stats.turns_accepted);
    EXPECT_EQ(a.stats.turns_completed, b.stats.turns_completed);
    EXPECT_EQ(a.stats.turns_shed, b.stats.turns_shed);
    EXPECT_EQ(a.stats.tokens_delivered, b.stats.tokens_delivered);
    EXPECT_EQ(a.stats.dispatch_windows, b.stats.dispatch_windows);
    EXPECT_EQ(a.stats.backend_batches, b.stats.backend_batches);
    EXPECT_EQ(a.stats.peak_accept_depth, b.stats.peak_accept_depth);
    EXPECT_EQ(a.stats.routed_per_replica, b.stats.routed_per_replica);
    EXPECT_EQ(a.stats.busy_seconds_per_replica,
              b.stats.busy_seconds_per_replica);

    ASSERT_FALSE(a.metrics_json.empty());
    ASSERT_FALSE(a.trace_json.empty());
    EXPECT_EQ(a.metrics_json, b.metrics_json);
    EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(Driver, ValidateRejectsZeroClients)
{
    DriverConfig config = small_driver();
    config.clients = 0;
    EXPECT_FALSE(config.validate().is_ok());
    config = small_driver();
    config.target_requests = 0;
    EXPECT_FALSE(config.validate().is_ok());
}

} // namespace
} // namespace helm::gateway
