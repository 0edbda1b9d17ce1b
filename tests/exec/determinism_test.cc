/**
 * @file
 * Determinism contract of the parallel evaluation engine: any jobs
 * value must produce byte-identical sweep Datasets / CSV and identical
 * tuner results.
 */
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "model/opt.h"
#include "sweep/sweep.h"
#include "sweep/tuner.h"

namespace helm {
namespace {

std::string
csv_text(const sweep::Dataset &dataset)
{
    std::ostringstream out;
    dataset.write_csv(out);
    return out.str();
}

sweep::ServingSweep
test_grid()
{
    runtime::ServingSpec base;
    base.model = model::opt_config(model::OptVariant::kOpt1_3B);
    base.repeats = 1;
    sweep::ServingSweep grid(base);
    // "GPT-J" is not in the zoo: those points exercise the error
    // column, which must merge identically at any jobs value.
    EXPECT_TRUE(
        grid.add_dimension("model", {"OPT-1.3B", "GPT-J"}).is_ok());
    EXPECT_TRUE(grid.add_dimension("memory", {"NVDRAM", "DRAM"}).is_ok());
    EXPECT_TRUE(
        grid.add_dimension("placement", {"Baseline", "HeLM", "All-CPU"})
            .is_ok());
    EXPECT_TRUE(grid.add_dimension("batch", {"1", "2", "4"}).is_ok());
    return grid;
}

/** A wider grid at two repeats: 48 points over memory, placement,
 *  batch and prompt length, enough for the pool to balance. */
sweep::ServingSweep
wide_grid()
{
    runtime::ServingSpec base;
    base.model = model::opt_config(model::OptVariant::kOpt1_3B);
    base.repeats = 2;
    sweep::ServingSweep grid(base);
    EXPECT_TRUE(grid.add_dimension("memory", {"NVDRAM", "DRAM"}).is_ok());
    EXPECT_TRUE(
        grid.add_dimension("placement", {"Baseline", "HeLM", "All-CPU"})
            .is_ok());
    EXPECT_TRUE(grid.add_dimension("batch", {"1", "2", "4", "8"}).is_ok());
    EXPECT_TRUE(
        grid.add_dimension("prompt_tokens", {"128", "256"}).is_ok());
    return grid;
}

/** CSV of @p grid run at @p jobs. */
std::string
csv_at_jobs(const sweep::ServingSweep &grid, std::size_t jobs)
{
    sweep::SweepOptions options;
    options.jobs = jobs;
    return csv_text(grid.run(options));
}

/** Expect @p grid's CSV at jobs 2 and 8 to match jobs 1 byte for byte;
 *  return the jobs-1 CSV. */
std::string
expect_identical_across_jobs(const sweep::ServingSweep &grid)
{
    const std::string baseline = csv_at_jobs(grid, 1);
    for (const std::size_t jobs : {2u, 8u}) {
        EXPECT_EQ(csv_at_jobs(grid, jobs), baseline)
            << grid.point_count() << " points, jobs=" << jobs;
    }
    return baseline;
}

TEST(SweepDeterminism, DatasetByteIdenticalAcrossJobs)
{
    const std::string small = expect_identical_across_jobs(test_grid());
    EXPECT_NE(small.find("error"), std::string::npos);

    const sweep::ServingSweep wide = wide_grid();
    EXPECT_EQ(wide.point_count(), 48u);
    expect_identical_across_jobs(wide);
}

sweep::TuneRequest
test_request(std::uint64_t batch_limit = 8)
{
    sweep::TuneRequest request;
    request.model = model::opt_config(model::OptVariant::kOpt1_3B);
    request.memory = mem::ConfigKind::kNvdram;
    request.shape.prompt_tokens = 128;
    request.shape.output_tokens = 21;
    request.batch_limit = batch_limit;
    return request;
}

/** Full textual image of a TuneResult, ordering included; metrics at
 *  %.17g, so any bit of divergence shows as a byte difference. */
std::string
tune_text(const sweep::TuneResult &result)
{
    std::ostringstream out;
    char buffer[96];
    const auto line = [&](const sweep::TuneCandidate &c) {
        std::snprintf(buffer, sizeof buffer, " %.17g %.17g %.17g %d",
                      c.metrics.ttft, c.metrics.tbt, c.metrics.throughput,
                      c.meets_qos ? 1 : 0);
        out << c.describe() << buffer << "\n";
    };
    line(result.best);
    out << result.infeasible << "\n";
    for (const auto &candidate : result.explored)
        line(candidate);
    return out.str();
}

TEST(TunerDeterminism, ResultIdenticalAcrossJobs)
{
    for (const std::uint64_t limit : {8u, 32u}) {
        const sweep::TuneRequest request = test_request(limit);
        const auto sequential = sweep::auto_tune(request);
        ASSERT_TRUE(sequential.is_ok()) << "batch_limit=" << limit;
        const std::string baseline = tune_text(*sequential);

        for (const std::size_t jobs : {2u, 8u}) {
            sweep::TuneRequest parallel_request = request;
            parallel_request.jobs = jobs;
            const auto parallel = sweep::auto_tune(parallel_request);
            ASSERT_TRUE(parallel.is_ok())
                << "batch_limit=" << limit << " jobs=" << jobs;
            EXPECT_EQ(tune_text(*parallel), baseline)
                << "batch_limit=" << limit << " jobs=" << jobs;
        }
    }
}

} // namespace
} // namespace helm
