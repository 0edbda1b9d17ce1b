/**
 * @file
 * Unit tests for the exec layer: parallel_for / parallel_map coverage,
 * exception semantics and nesting, and ShardedMemo
 * compute-once behavior under concurrency.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/memo.h"
#include "exec/parallel.h"

namespace helm::exec {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> seen(kCount);
    parallel_for(kCount, 8, [&seen](std::size_t i) { ++seen[i]; });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(seen[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SequentialWhenJobsIsOne)
{
    // jobs=1 is the exact legacy path: in-order, on the calling thread.
    std::vector<std::size_t> order;
    const auto caller = std::this_thread::get_id();
    parallel_for(64, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ZeroCountIsANoop)
{
    bool called = false;
    parallel_for(0, 8, [&called](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, LowestIndexExceptionWins)
{
    // Several indices throw; the caller must see the one a sequential
    // run would have surfaced first, on every schedule.
    for (int repeat = 0; repeat < 10; ++repeat) {
        try {
            parallel_for(64, 8, [](std::size_t i) {
                if (i == 7 || i == 23 || i == 55)
                    throw std::runtime_error("index " +
                                             std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "index 7");
        }
    }
}

TEST(ParallelFor, NestedFanOutRunsInline)
{
    std::atomic<int> total{0};
    parallel_for(4, 4, [&total](std::size_t) {
        const auto worker = std::this_thread::get_id();
        parallel_for(8, 4, [&total, worker](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), worker);
            ++total;
        });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ParallelMap, SlotsFollowIndexOrder)
{
    const std::vector<std::size_t> squares = parallel_map<std::size_t>(
        100, 8, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 100u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ShardedMemo, ComputesOncePerKeyUnderConcurrency)
{
    ShardedMemo<int> memo;
    std::atomic<int> computations{0};
    parallel_for(64, 8, [&](std::size_t i) {
        const std::string key = "key-" + std::to_string(i % 4);
        const int value = memo.get_or_compute(key, [&] {
            ++computations;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return static_cast<int>(i % 4);
        });
        EXPECT_EQ(value, static_cast<int>(i % 4));
    });
    EXPECT_EQ(computations.load(), 4);
    EXPECT_EQ(memo.misses(), 4u);
    EXPECT_EQ(memo.hits(), 60u);
    EXPECT_EQ(memo.size(), 4u);
}

TEST(ShardedMemo, ExceptionDoesNotPoisonTheKey)
{
    ShardedMemo<int> memo;
    EXPECT_THROW(memo.get_or_compute(
                     "k",
                     []() -> int { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_EQ(memo.get_or_compute("k", [] { return 42; }), 42);
    EXPECT_EQ(memo.size(), 1u);
}

TEST(ShardedMemo, DistinctKeysAreIndependent)
{
    ShardedMemo<std::string> memo;
    EXPECT_EQ(memo.get_or_compute("a", [] { return std::string("A"); }),
              "A");
    EXPECT_EQ(memo.get_or_compute("b", [] { return std::string("B"); }),
              "B");
    EXPECT_EQ(memo.get_or_compute("a", [] { return std::string("X"); }),
              "A");
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(memo.misses(), 2u);
}

TEST(ThreadPool, DefaultJobsIsPositive)
{
    // jobs = 0 asks for the default worker count, which is never zero.
    EXPECT_GE(resolve_jobs(0), 1u);
}

TEST(ResolveJobs, ZeroMeansHardwareThreads)
{
    EXPECT_EQ(resolve_jobs(0),
              std::max(1u, std::thread::hardware_concurrency()));
    EXPECT_EQ(resolve_jobs(1), 1u);
    EXPECT_EQ(resolve_jobs(7), 7u);
}

} // namespace
} // namespace helm::exec
