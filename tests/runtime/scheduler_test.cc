/**
 * @file
 * Unit + integration tests for the request-level scheduler
 * (runtime/scheduler.h).
 */
#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "common/summary.h"
#include "model/opt.h"
#include "runtime/scheduler.h"
#include "runtime/step_cache.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

ServingSpec
small_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    return spec;
}

/** n requests of the paper shape, all arriving at @p arrival. */
std::vector<workload::TimedRequest>
burst(std::uint64_t n, Seconds arrival, std::uint64_t first_id = 0)
{
    std::vector<workload::TimedRequest> stream;
    for (std::uint64_t i = 0; i < n; ++i) {
        stream.push_back(workload::TimedRequest{
            workload::Request{first_id + i, 128, 21}, arrival});
    }
    return stream;
}

TEST(Scheduler, CreateValidatesSpecAndPolicy)
{
    ServingSpec bad = small_spec();
    bad.shape.output_tokens = 0;
    EXPECT_EQ(Server::create(bad).status().code(),
              StatusCode::kInvalidArgument);

    ServingConfig no_queue;
    no_queue.max_queue_length = 0;
    EXPECT_EQ(Server::create(small_spec(), no_queue).status().code(),
              StatusCode::kInvalidArgument);

    ServingConfig negative_delay;
    negative_delay.max_queue_delay = -0.1;
    EXPECT_EQ(
        Server::create(small_spec(), negative_delay).status().code(),
        StatusCode::kInvalidArgument);
}

TEST(Scheduler, AutoSizedBatchCeilingIsPositive)
{
    auto server = Server::create(small_spec());
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    EXPECT_GE(server->effective_max_batch(), 1u);
}

TEST(Scheduler, RejectsBadSubmissions)
{
    auto server = Server::create(small_spec());
    ASSERT_TRUE(server.is_ok());
    EXPECT_EQ(server->submit(workload::Request{0, 128, 21}, -1.0).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(server->submit(workload::Request{0, 0, 21}, 0.0).code(),
              StatusCode::kInvalidArgument);
}

TEST(Scheduler, EmptyRunYieldsEmptyReport)
{
    auto server = Server::create(small_spec());
    ASSERT_TRUE(server.is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    EXPECT_EQ(report->submitted, 0u);
    EXPECT_EQ(report->completed, 0u);
    EXPECT_EQ(report->batches_formed, 0u);
}

TEST(Scheduler, FcfsOrderingAndGreedyBatching)
{
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = 4;
    config.max_queue_delay = 0.0; // greedy dispatch
    auto server = Server::create(small_spec(), config);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(8, 0.0)).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();

    ASSERT_EQ(report->completed, 8u);
    EXPECT_EQ(report->batches_formed, 2u);
    EXPECT_DOUBLE_EQ(report->mean_batch_size, 4.0);
    for (std::size_t i = 0; i < report->requests.size(); ++i) {
        // FCFS: dispatch order == arrival (id) order.
        EXPECT_EQ(report->requests[i].id, i);
        EXPECT_EQ(report->requests[i].batch_index, i / 4);
    }
    // First batch launches immediately; second waits for the engine.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(report->requests[i].queueing_delay, 0.0);
    for (std::size_t i = 4; i < 8; ++i)
        EXPECT_GT(report->requests[i].queueing_delay, 0.0);
}

TEST(Scheduler, MaxQueueDelayHonored)
{
    // A lone request with batch-mates that never come: the scheduler
    // must give up waiting exactly at max_queue_delay.
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = 8;
    config.max_queue_delay = 0.3;
    auto server = Server::create(small_spec(), config);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(workload::Request{0, 128, 21}, 0.0).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    ASSERT_EQ(report->completed, 1u);
    EXPECT_NEAR(report->requests[0].queueing_delay, 0.3, 1e-12);

    // Greedy mode: no waiting at all.
    ServingConfig greedy;
    greedy.auto_max_batch = false;
    greedy.max_batch = 8;
    greedy.max_queue_delay = 0.0;
    auto greedy_server = Server::create(small_spec(), greedy);
    ASSERT_TRUE(greedy_server.is_ok());
    ASSERT_TRUE(
        greedy_server->submit(workload::Request{0, 128, 21}, 0.0).is_ok());
    const auto greedy_report = greedy_server->serve();
    ASSERT_TRUE(greedy_report.is_ok());
    EXPECT_DOUBLE_EQ(greedy_report->requests[0].queueing_delay, 0.0);
}

TEST(Scheduler, BatchLaunchesEarlyOnceFull)
{
    // Two requests 0.1 s apart with a generous delay budget: the batch
    // fills at 0.1 s and must launch then, not at the deadline.
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = 2;
    config.max_queue_delay = 5.0;
    auto server = Server::create(small_spec(), config);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(workload::Request{0, 128, 21}, 0.0).is_ok());
    ASSERT_TRUE(server->submit(workload::Request{1, 128, 21}, 0.1).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    ASSERT_EQ(report->completed, 2u);
    EXPECT_EQ(report->batches_formed, 1u);
    EXPECT_NEAR(report->requests[0].queueing_delay, 0.1, 1e-12);
    EXPECT_NEAR(report->requests[1].queueing_delay, 0.0, 1e-12);
}

TEST(Scheduler, QueueCapShedsLoadAndDepthStaysBounded)
{
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = 4;
    config.max_queue_delay = 0.0;
    config.max_queue_length = 8;
    auto server = Server::create(small_spec(), config);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(20, 0.0)).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());

    EXPECT_EQ(report->submitted, 20u);
    EXPECT_EQ(report->completed, 8u);
    EXPECT_EQ(report->rejected, 12u);
    EXPECT_EQ(report->rejected_ids.size(), 12u);
    EXPECT_LE(report->max_queue_depth, 8u);
    // FCFS admission: the first 8 ids survive.
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(report->requests[i].id, i);
}

TEST(Scheduler, ReportAggregatesAreConsistent)
{
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = 4;
    config.max_queue_delay = 0.1;
    config.enforce_ttft = true;
    config.ttft_target = 1e9; // everything meets it
    auto server = Server::create(small_spec(), config);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(6, 0.0)).is_ok());
    ASSERT_TRUE(server->submit(burst(3, 2.0, 6)).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());

    ASSERT_EQ(report->completed, 9u);
    EXPECT_EQ(report->total_tokens, 9u * 21u);
    EXPECT_DOUBLE_EQ(report->slo_attainment, 1.0);
    EXPECT_DOUBLE_EQ(report->goodput, report->throughput);
    EXPECT_GT(report->makespan, 0.0);
    EXPECT_NEAR(report->throughput,
                static_cast<double>(report->total_tokens) /
                    report->makespan,
                1e-9);
    // e2e >= ttft >= queueing delay for every request.
    for (const auto &r : report->requests) {
        EXPECT_GE(r.ttft, r.queueing_delay);
        EXPECT_GE(r.e2e_latency, r.ttft);
    }
    // Percentiles come from the shared nearest-rank helper.
    std::vector<double> ttfts;
    for (const auto &r : report->requests)
        ttfts.push_back(r.ttft);
    EXPECT_DOUBLE_EQ(report->ttft_percentile(99.0),
                     percentile_nearest_rank(ttfts, 99.0));
}

TEST(Scheduler, SloSplitsGoodputFromThroughput)
{
    // Impossible TTFT target: goodput collapses to zero while
    // throughput does not.
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = 4;
    config.enforce_ttft = true;
    config.ttft_target = 1e-6;
    auto server = Server::create(small_spec(), config);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(4, 0.0)).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    EXPECT_DOUBLE_EQ(report->slo_attainment, 0.0);
    EXPECT_DOUBLE_EQ(report->goodput, 0.0);
    EXPECT_GT(report->throughput, 0.0);
}

TEST(Scheduler, FcfsCountsDeadlineMisses)
{
    // Two batches of four; every deadline falls between the batches'
    // completions, so exactly the second batch misses it.
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = 4;
    config.max_queue_delay = 0.0;
    auto probe = Server::create(small_spec(), config);
    ASSERT_TRUE(probe.is_ok());
    ASSERT_TRUE(probe->submit(burst(8, 0.0)).is_ok());
    const auto timing = probe->serve();
    ASSERT_TRUE(timing.is_ok()) << timing.status().to_string();
    ASSERT_EQ(timing->completed, 8u);
    EXPECT_EQ(timing->deadline_misses, 0u);
    const Seconds between = (timing->requests[0].e2e_latency +
                             timing->requests[7].e2e_latency) /
                            2.0;

    std::vector<workload::TimedRequest> stream = burst(8, 0.0);
    for (workload::TimedRequest &timed : stream)
        timed.deadline = between;
    auto server = Server::create(small_spec(), config);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(stream).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    ASSERT_EQ(report->completed, 8u);
    EXPECT_EQ(report->deadline_misses, 4u);
    for (std::size_t i = 0; i < report->requests.size(); ++i)
        EXPECT_EQ(report->requests[i].deadline_met, i < 4) << i;
}

/** One request per (prompt, output) pair, ids 0.., all at t = 0. */
std::vector<workload::TimedRequest>
stream_of(const std::vector<std::pair<std::uint64_t, std::uint64_t>> &lengths)
{
    std::vector<workload::TimedRequest> stream;
    for (const auto &[prompt, output] : lengths) {
        stream.push_back(workload::TimedRequest{
            workload::Request{stream.size(), prompt, output}, 0.0});
    }
    return stream;
}

/** Every index of @p pending, in order: the FCFS queue over it. */
std::deque<std::size_t>
queue_over(const std::vector<workload::TimedRequest> &pending)
{
    std::deque<std::size_t> queue;
    for (std::size_t i = 0; i < pending.size(); ++i)
        queue.push_back(i);
    return queue;
}

/** Admission with @p ceiling slots and 16-token KV blocks, of which the
 *  managed tiers hold @p blocks (kUnbounded = unmanaged). */
AdmissionGeometry
admission_of(std::uint64_t ceiling,
             std::uint64_t blocks = AdmissionGeometry::kUnbounded)
{
    AdmissionGeometry admission;
    admission.ceiling = ceiling;
    admission.kv_block_tokens = 16;
    admission.kv_capacity_blocks = blocks;
    return admission;
}

TEST(FormBatch, StopsAtTheCeiling)
{
    const auto pending = stream_of(
        {{128, 21}, {512, 21}, {128, 64}, {128, 21}, {128, 21}});
    std::deque<std::size_t> queue = queue_over(pending);
    ServingReport report;
    const FormedBatch formed =
        form_batch(queue, pending, admission_of(2), report);
    EXPECT_EQ(formed.members, (std::vector<std::size_t>{0, 1}));
    // Requests left in the queue do not pad the batch.
    EXPECT_EQ(formed.shape, (BatchShape{2, {512, 21}}));
    EXPECT_EQ(queue, (std::deque<std::size_t>{2, 3, 4}));
    EXPECT_TRUE(report.rejected_ids.empty());
}

TEST(FormBatch, StopsAtKvCapacity)
{
    // Contexts 32, 149, 32 tokens = 2, 10, 2 blocks alone.  Members are
    // padded to the longest prompt plus the longest output (149), so
    // the second admits at 2 x 10 = 20 blocks and the third would need
    // 3 x 10 = 30 > 25, although it is short itself.
    const auto pending = stream_of({{16, 16}, {128, 21}, {16, 16}});
    std::deque<std::size_t> queue = queue_over(pending);
    ServingReport report;
    const FormedBatch formed =
        form_batch(queue, pending, admission_of(8, 25), report);
    EXPECT_EQ(formed.members, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(formed.shape, (BatchShape{2, {128, 21}}));
    EXPECT_EQ(queue, (std::deque<std::size_t>{2}));
    // A full batch is not a rejection: the third waits for the next.
    EXPECT_TRUE(report.rejected_ids.empty());
    EXPECT_EQ(report.kv_rejected, 0u);
}

TEST(FormBatch, KvCheckUsesThePaddedShape)
{
    // Each request alone needs 1001 tokens = 63 blocks, and two of them
    // 126, which the tier holds.  But together the batch runs at
    // (1000, 1000): 2 x 125 = 250 blocks.  They must not share a batch.
    const auto pending = stream_of({{1000, 1}, {1, 1000}});
    std::deque<std::size_t> queue = queue_over(pending);
    ServingReport report;
    const FormedBatch first =
        form_batch(queue, pending, admission_of(8, 126), report);
    EXPECT_EQ(first.members, (std::vector<std::size_t>{0}));
    EXPECT_EQ(first.shape, (BatchShape{1, {1000, 1}}));
    EXPECT_EQ(queue, (std::deque<std::size_t>{1}));
    const FormedBatch second =
        form_batch(queue, pending, admission_of(8, 126), report);
    EXPECT_EQ(second.members, (std::vector<std::size_t>{1}));
    EXPECT_EQ(second.shape, (BatchShape{1, {1, 1000}}));
    EXPECT_TRUE(queue.empty());
    EXPECT_TRUE(report.rejected_ids.empty());
}

TEST(FormBatch, ShedsARequestThatCannotFitAlone)
{
    // 1000 + 21 tokens = 64 blocks > 15: never admissible, so it is
    // shed and the batch forms from what follows.
    const auto pending = stream_of({{1000, 21}, {128, 21}});
    std::deque<std::size_t> queue = queue_over(pending);
    ServingReport report;
    const FormedBatch formed =
        form_batch(queue, pending, admission_of(8, 15), report);
    EXPECT_EQ(formed.members, (std::vector<std::size_t>{1}));
    EXPECT_EQ(formed.shape, (BatchShape{1, {128, 21}}));
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(report.rejected_ids, (std::vector<std::uint64_t>{0}));
    EXPECT_EQ(report.kv_rejected, 1u);

    // Every candidate shed: an empty batch.
    const auto hopeless = stream_of({{1000, 21}, {2000, 21}});
    std::deque<std::size_t> hopeless_queue = queue_over(hopeless);
    const FormedBatch none =
        form_batch(hopeless_queue, hopeless, admission_of(8, 15), report);
    EXPECT_TRUE(none.members.empty());
    EXPECT_EQ(none.shape.count, 0u);
    EXPECT_TRUE(hopeless_queue.empty());
    EXPECT_EQ(report.rejected_ids, (std::vector<std::uint64_t>{0, 0, 1}));
    EXPECT_EQ(report.kv_rejected, 3u);
}

TEST(BatchSpec, OverridesOnlyTheBatchFields)
{
    ServingSpec base = small_spec();
    base.repeats = 4;
    const ServingSpec spec =
        batch_spec(base, BatchShape{3, {250, 21}}, /*keep_records=*/true);
    EXPECT_EQ(spec.batch, 3u);
    EXPECT_EQ(spec.shape, (model::SequenceShape{250, 21}));
    EXPECT_EQ(spec.repeats, 1u);
    EXPECT_TRUE(spec.keep_records);
    EXPECT_EQ(spec_cache_key(spec),
              spec_cache_key(batch_spec(base, BatchShape{3, {250, 21}},
                                        /*keep_records=*/false)));
}

TEST(SchedulerIntegration, HelmBeatsBaselineP99TtftOnNvdram)
{
    // The paper's HeLM-vs-Baseline latency gap (Sec. V-B) must survive
    // the serving front end: same arrival stream, same scheduler, HeLM
    // takes the p99 TTFT on NVDRAM.
    workload::ArrivalSpec arrivals;
    arrivals.kind = workload::ArrivalKind::kUniform; // deterministic
    arrivals.rate = 0.25;
    arrivals.duration = 40.0; // 9 requests, 4 s apart
    const auto stream = workload::generate_arrivals(arrivals);
    ASSERT_TRUE(stream.is_ok());

    auto p99_ttft = [&](placement::PlacementKind scheme) {
        ServingSpec spec;
        spec.model = model::opt_config(OptVariant::kOpt175B);
        spec.memory = mem::ConfigKind::kNvdram;
        spec.placement = scheme;
        spec.compress_weights = true;
        ServingConfig config;
        config.auto_max_batch = false;
        config.max_batch = 2;
        config.max_queue_delay = 0.5;
        auto server = Server::create(spec, config);
        EXPECT_TRUE(server.is_ok()) << server.status().to_string();
        EXPECT_TRUE(server->submit(*stream).is_ok());
        auto report = server->serve();
        EXPECT_TRUE(report.is_ok()) << report.status().to_string();
        EXPECT_EQ(report->completed, stream->size());
        return report->ttft_percentile(99.0);
    };

    const double baseline = p99_ttft(placement::PlacementKind::kBaseline);
    const double helm = p99_ttft(placement::PlacementKind::kHelm);
    EXPECT_LT(helm, baseline);
}

} // namespace
} // namespace helm::runtime
