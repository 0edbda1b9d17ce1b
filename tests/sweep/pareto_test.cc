/**
 * @file
 * Unit tests for the device-zoo cost model and Pareto explorer: price
 * arithmetic, the non-domination invariant on the frontier, and the
 * jobs-count determinism contract.
 */
#include <gtest/gtest.h>

#include "sweep/cost_model.h"
#include "sweep/pareto.h"
#include "mem/registry.h"
#include "model/opt.h"

namespace helm::sweep {
namespace {

TEST(CostModel, EveryKindHasAPositivePrice)
{
    const CostModel cost;
    for (auto kind :
         {mem::MemoryKind::kDram, mem::MemoryKind::kOptane,
          mem::MemoryKind::kMemoryMode, mem::MemoryKind::kSsd,
          mem::MemoryKind::kFsdax, mem::MemoryKind::kCxl,
          mem::MemoryKind::kNdpDimm, mem::MemoryKind::kHbf})
        EXPECT_GT(cost.dollars_per_gb(kind), 0.0)
            << mem::memory_kind_name(kind);
    // The shape the frontier depends on: flash an order of magnitude
    // cheaper than DRAM, NDP-DIMMs at a premium over plain DDR4.
    EXPECT_LT(cost.dollars_per_gb(mem::MemoryKind::kHbf) * 10.0,
              cost.dollars_per_gb(mem::MemoryKind::kDram));
    EXPECT_GT(cost.dollars_per_gb(mem::MemoryKind::kNdpDimm),
              cost.dollars_per_gb(mem::MemoryKind::kDram));
}

TEST(CostModel, DeviceDollarsScaleWithCapacity)
{
    const CostModel cost;
    const auto dram = mem::make_dram();
    const double expected = cost.dram_per_gb *
                            static_cast<double>(dram->capacity()) / 1e9;
    EXPECT_NEAR(cost.device_dollars(*dram), expected, 1e-9);
}

TEST(CostModel, SystemDollarsSumGpuPlatformAndTiers)
{
    const CostModel cost;
    const auto host_only = mem::make_system("DRAM");
    ASSERT_TRUE(host_only.is_ok());
    const double base = cost.gpu_dollars + cost.host_platform_dollars;
    EXPECT_NEAR(cost.system_dollars(*host_only),
                base + cost.device_dollars(*host_only->host()), 1e-9);

    // Storage-tier systems price both the DRAM host and the device.
    const auto tiered = mem::make_system("SSD");
    ASSERT_TRUE(tiered.is_ok());
    EXPECT_NEAR(cost.system_dollars(*tiered),
                base + cost.device_dollars(*tiered->host()) +
                    cost.device_dollars(*tiered->storage()),
                1e-9);
}

TEST(CostModel, CostPerTokenAmortizesOverTheHorizon)
{
    const CostModel cost;
    const double seconds = cost.amortization_years * 365.0 * 24.0 * 3600.0;
    EXPECT_NEAR(cost.cost_per_token(seconds, 1.0), 1.0, 1e-12);
    EXPECT_EQ(cost.cost_per_token(10000.0, 0.0), 0.0);
}

ExploreOptions
small_options()
{
    ExploreOptions options;
    options.model = model::opt_config(model::OptVariant::kOpt6_7B);
    options.devices = {"DRAM", "NDP-DIMM"};
    options.batches = {1, 8};
    // Keep the unit test to the grid itself; bench_pareto runs the
    // HBF demonstration.
    options.include_hbf_exclusive = false;
    return options;
}

TEST(Pareto, FrontierIsNonDominatedAndFeasible)
{
    const auto report = explore(small_options());
    ASSERT_TRUE(report.is_ok());
    ASSERT_GE(report->frontier_size, 1u);

    std::size_t marked = 0;
    for (const ParetoPoint &p : report->points) {
        if (!p.on_frontier)
            continue;
        ++marked;
        EXPECT_TRUE(p.ok) << p.device;
        EXPECT_TRUE(p.feasible) << p.device;
        // Recompute non-domination from scratch: no other ok+feasible
        // point may be at least as good on both axes and strictly
        // better on one.
        for (const ParetoPoint &q : report->points) {
            if (&q == &p || !q.ok || !q.feasible)
                continue;
            const bool dominates =
                q.cost_per_token <= p.cost_per_token && q.tbt <= p.tbt &&
                (q.cost_per_token < p.cost_per_token || q.tbt < p.tbt);
            EXPECT_FALSE(dominates)
                << q.device << "/" << q.placement << " b=" << q.batch
                << " dominates " << p.device << "/" << p.placement
                << " b=" << p.batch;
        }
    }
    EXPECT_EQ(marked, report->frontier_size);
}

TEST(Pareto, NdpAutoVariantAppearsOnlyForNdpDevices)
{
    const auto report = explore(small_options());
    ASSERT_TRUE(report.is_ok());
    bool saw_ndp_auto = false;
    for (const ParetoPoint &p : report->points) {
        if (p.site == "auto") {
            EXPECT_EQ(p.device, "NDP-DIMM");
            saw_ndp_auto = true;
        } else {
            EXPECT_EQ(p.site, "gpu");
        }
    }
    EXPECT_TRUE(saw_ndp_auto);
}

TEST(Pareto, ReportIsByteIdenticalAcrossJobCounts)
{
    ExploreOptions sequential = small_options();
    sequential.jobs = 1;
    ExploreOptions threaded = small_options();
    threaded.jobs = 4;

    const auto a = explore(sequential);
    const auto b = explore(threaded);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(report_text(*a), report_text(*b));
}

TEST(Pareto, UnknownDeviceFailsFast)
{
    ExploreOptions options = small_options();
    options.devices = {"DRAM", "punch-cards"};
    const auto report = explore(options);
    ASSERT_FALSE(report.is_ok());
    EXPECT_NE(report.status().to_string().find("punch-cards"),
              std::string::npos);
}

TEST(Pareto, EmptyBatchListIsRejected)
{
    ExploreOptions options = small_options();
    options.batches.clear();
    EXPECT_FALSE(explore(options).is_ok());
}

} // namespace
} // namespace helm::sweep
