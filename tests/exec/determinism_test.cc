/**
 * @file
 * Determinism contract of the parallel evaluation engine: any jobs
 * value must produce byte-identical sweep Datasets / CSV, identical
 * tuner results, and deterministic step-cache statistics.
 */
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/opt.h"
#include "runtime/step_cache.h"
#include "runtime/tuner.h"
#include "sweep/sweep.h"
#include "telemetry/metrics.h"

namespace helm {
namespace {

/** Step-cache counter movement since construction. */
struct CacheDelta
{
    std::uint64_t hits0 = runtime::step_cache().hits();
    std::uint64_t misses0 = runtime::step_cache().misses();

    std::uint64_t hits() const { return runtime::step_cache().hits() - hits0; }
    std::uint64_t
    misses() const
    {
        return runtime::step_cache().misses() - misses0;
    }
};

/** Run @p fn with the step cache off: the exact uncached path. */
template <typename Fn>
auto
uncached(Fn fn)
{
    runtime::set_step_cache_enabled(false);
    auto result = fn();
    runtime::set_step_cache_enabled(true);
    return result;
}

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

TEST(SweepDeterminism, DatasetByteIdenticalAcrossJobs)
{
    const sweep::ServingSweep grid = test_grid();
    sweep::SweepOptions sequential;
    sequential.jobs = 1;
    const std::string baseline = csv_text(grid.run(sequential));
    EXPECT_NE(baseline.find("error"), std::string::npos);

    for (const std::size_t jobs : {2u, 8u}) {
        sweep::SweepOptions options;
        options.jobs = jobs;
        EXPECT_EQ(csv_text(grid.run(options)), baseline)
            << "jobs=" << jobs;
    }
}

TEST(SweepDeterminism, CacheDoesNotChangeTheDataset)
{
    const sweep::ServingSweep grid = test_grid();
    sweep::SweepOptions options;
    options.jobs = 8;
    runtime::step_cache().clear();
    const CacheDelta cache;
    const std::string cached = csv_text(grid.run(options));
    sweep::SweepOptions sequential;
    sequential.jobs = 1;
    EXPECT_EQ(cached, uncached([&] { return csv_text(grid.run(sequential)); }));
    // Unknown-model points fail before the engine, so misses < points
    // but > 0.
    EXPECT_GT(cache.misses(), 0u);
}

TEST(SweepDeterminism, ProgressReachesTotalExactlyOnce)
{
    const sweep::ServingSweep grid = test_grid();
    sweep::SweepOptions options;
    options.jobs = 8;
    std::vector<std::size_t> done_values;
    options.progress = [&done_values](std::size_t done,
                                      std::size_t total) {
        EXPECT_EQ(total, 36u);
        done_values.push_back(done);
    };
    (void)grid.run(options);
    ASSERT_EQ(done_values.size(), 36u);
    // Calls are serialized with an incrementing done counter.
    for (std::size_t i = 0; i < done_values.size(); ++i)
        EXPECT_EQ(done_values[i], i + 1);
}

runtime::TuneRequest
test_request()
{
    runtime::TuneRequest request;
    request.model = model::opt_config(model::OptVariant::kOpt1_3B);
    request.memory = mem::ConfigKind::kNvdram;
    request.shape.prompt_tokens = 128;
    request.shape.output_tokens = 21;
    request.batch_limit = 8;
    return request;
}

/** Full textual image of a TuneResult, ordering included. */
std::string
tune_text(const runtime::TuneResult &result)
{
    std::ostringstream out;
    const auto line = [&out](const runtime::TuneCandidate &c) {
        out << c.describe() << " " << c.metrics.ttft << " "
            << c.metrics.tbt << " " << c.metrics.throughput << " "
            << c.meets_qos << "\n";
    };
    line(result.best);
    out << result.infeasible << "\n";
    for (const auto &candidate : result.explored)
        line(candidate);
    return out.str();
}

TEST(TunerDeterminism, ResultIdenticalAcrossJobs)
{
    const runtime::TuneRequest request = test_request();
    const auto sequential = runtime::auto_tune(request);
    ASSERT_TRUE(sequential.is_ok());
    const std::string baseline = tune_text(*sequential);

    for (const std::size_t jobs : {2u, 8u}) {
        runtime::TuneExecOptions exec;
        exec.jobs = jobs;
        const auto parallel = runtime::auto_tune(request, exec);
        ASSERT_TRUE(parallel.is_ok()) << "jobs=" << jobs;
        EXPECT_EQ(tune_text(*parallel), baseline) << "jobs=" << jobs;
    }
}

TEST(TunerDeterminism, CacheDoesNotChangeTheResult)
{
    const runtime::TuneRequest request = test_request();
    const auto baseline =
        uncached([&] { return runtime::auto_tune(request); });
    ASSERT_TRUE(baseline.is_ok());

    runtime::step_cache().clear();
    const CacheDelta cache;
    runtime::TuneExecOptions exec;
    exec.jobs = 8;
    const auto first = runtime::auto_tune(request, exec);
    ASSERT_TRUE(first.is_ok());
    EXPECT_EQ(tune_text(*first), tune_text(*baseline));
    const std::uint64_t misses_after_first = cache.misses();
    EXPECT_GT(misses_after_first, 0u);

    // A repeated search is served entirely from the memo: no new
    // misses, one hit per candidate.
    const auto second = runtime::auto_tune(request, exec);
    ASSERT_TRUE(second.is_ok());
    EXPECT_EQ(tune_text(*second), tune_text(*baseline));
    EXPECT_EQ(cache.misses(), misses_after_first);
    EXPECT_EQ(cache.hits(), misses_after_first);
    EXPECT_EQ(cache.hits(), second->explored.size() + second->infeasible);
}

TEST(StepCacheMemo, RepeatedSpecHits)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    runtime::step_cache().clear();
    const CacheDelta cache;
    const runtime::SimPoint first = runtime::simulate_point(spec);
    const runtime::SimPoint second = runtime::simulate_point(spec);
    ASSERT_TRUE(first.is_ok());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(first.metrics.tbt, second.metrics.tbt);
    EXPECT_EQ(first.metrics.throughput, second.metrics.throughput);
    EXPECT_EQ(first.gpu_used, second.gpu_used);
}

TEST(StepCacheMemo, KeyDistinguishesSpecs)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    const std::string base_key = runtime::spec_cache_key(spec);
    EXPECT_EQ(runtime::spec_cache_key(spec), base_key);

    runtime::ServingSpec batched = spec;
    batched.batch = 2;
    EXPECT_NE(runtime::spec_cache_key(batched), base_key);

    runtime::ServingSpec offloaded = spec;
    offloaded.kv_cache = kvcache::KvCacheConfig::legacy_offload();
    EXPECT_NE(runtime::spec_cache_key(offloaded), base_key);

    // The host is one field: a zoo device or a custom CXL rate splits
    // the key from the default NVDRAM host and from each other.
    runtime::ServingSpec hbf = spec;
    hbf.memory = "HBF";
    runtime::ServingSpec cxl16 = spec;
    cxl16.memory = mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(16.0));
    runtime::ServingSpec cxl32 = spec;
    cxl32.memory = mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(32.0));
    EXPECT_NE(runtime::spec_cache_key(hbf), base_key);
    EXPECT_NE(runtime::spec_cache_key(cxl16), base_key);
    EXPECT_NE(runtime::spec_cache_key(cxl16),
              runtime::spec_cache_key(cxl32));

    // keep_records is presentation-only: it must not split the key.
    runtime::ServingSpec recorded = spec;
    recorded.keep_records = true;
    EXPECT_EQ(runtime::spec_cache_key(recorded), base_key);
}

TEST(StepCacheMemo, RecordEmitsHitsAndMisses)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    (void)runtime::simulate_point(spec);
    (void)runtime::simulate_point(spec);
    const runtime::StepScheduleCache &cache = runtime::step_cache();

    telemetry::MetricsRegistry registry;
    cache.record(registry);
    EXPECT_EQ(registry.family_count(), 2u);
    EXPECT_EQ(registry.label_sets("helm_stepcache_hits").size(), 1u);
    EXPECT_EQ(registry.label_sets("helm_stepcache_misses").size(), 1u);
    EXPECT_EQ(registry.value_or("helm_stepcache_hits", {{"stage", "engine"}}),
              static_cast<double>(cache.hits()));
    EXPECT_EQ(
        registry.value_or("helm_stepcache_misses", {{"stage", "engine"}}),
        static_cast<double>(cache.misses()));
    EXPECT_GE(cache.hits(), 1u);
    EXPECT_GE(cache.misses(), 1u);
}

} // namespace
} // namespace helm
