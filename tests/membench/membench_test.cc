/**
 * @file
 * Unit tests for the nvbandwidth-equivalent copy benchmark (Fig. 3).
 */
#include <gtest/gtest.h>

#include "membench/membench.h"

namespace helm::membench {
namespace {

using mem::ConfigKind;

TEST(Membench, SingleCopyBandwidthMatchesPath)
{
    const auto sys = mem::make_config(ConfigKind::kDram);
    const auto m = measure_copy(sys, kGiB, CopyDirection::kHostToGpu);
    EXPECT_EQ(m.buffer, kGiB);
    EXPECT_GT(m.elapsed, 0.0);
    EXPECT_NEAR(m.bandwidth.as_gb_per_s(),
                sys.host_to_gpu_cold_bw(kGiB).as_gb_per_s(), 0.01);
}

TEST(Membench, DefaultSweepLadder)
{
    const auto buffers = default_buffer_sweep();
    // Fig. 3: 256 MB .. 32 GB.
    EXPECT_EQ(buffers.front(), 256 * kMiB);
    EXPECT_EQ(buffers.back(), 32 * kGiB);
    for (std::size_t i = 1; i < buffers.size(); ++i)
        EXPECT_GT(buffers[i], buffers[i - 1]);
}

TEST(Membench, DramFlatAcrossBufferSizes)
{
    const auto sys = mem::make_config(ConfigKind::kDram);
    const auto small =
        measure_copy(sys, 256 * kMiB, CopyDirection::kHostToGpu);
    const auto large =
        measure_copy(sys, 32 * kGiB, CopyDirection::kHostToGpu);
    EXPECT_NEAR(small.bandwidth.as_gb_per_s(),
                large.bandwidth.as_gb_per_s(), 0.01);
}

TEST(Membench, NvdramH2dDropsAtLargeBuffers)
{
    // Fig. 3a: ~20% below DRAM up to 4 GB, widening to ~37% at 32 GB.
    const auto dram = mem::make_config(ConfigKind::kDram);
    const auto nvdram = mem::make_config(ConfigKind::kNvdram);
    const double dram_bw =
        measure_copy(dram, 4 * kGiB, CopyDirection::kHostToGpu)
            .bandwidth.as_gb_per_s();
    const double nv_small =
        measure_copy(nvdram, 4 * kGiB, CopyDirection::kHostToGpu)
            .bandwidth.as_gb_per_s();
    const double nv_large =
        measure_copy(nvdram, 32 * kGiB, CopyDirection::kHostToGpu)
            .bandwidth.as_gb_per_s();
    EXPECT_NEAR(1.0 - nv_small / dram_bw, 0.19, 0.04);
    EXPECT_NEAR(1.0 - nv_large / dram_bw, 0.37, 0.04);
    EXPECT_NEAR(nv_small, 19.91, 0.1);
    EXPECT_NEAR(nv_large, 15.52, 0.1);
}

TEST(Membench, NvdramD2hCollapses)
{
    // Fig. 3b: GPU->Optane is ~88% below DRAM, peaking at 3.26 GB/s.
    auto dram = mem::make_config(ConfigKind::kDram);
    auto nvdram = mem::make_config(ConfigKind::kNvdram);
    dram.set_numa_node(1);
    nvdram.set_numa_node(1);
    const double dram_bw =
        measure_copy(dram, kGiB, CopyDirection::kGpuToHost)
            .bandwidth.as_gb_per_s();
    const double nv_bw =
        measure_copy(nvdram, kGiB, CopyDirection::kGpuToHost)
            .bandwidth.as_gb_per_s();
    EXPECT_NEAR(nv_bw, 3.26, 0.1);
    EXPECT_GT(1.0 - nv_bw / dram_bw, 0.80);
}

TEST(Membench, NvdramD2hNumaAsymmetry)
{
    // Fig. 3b: NVDRAM-0 sits below NVDRAM-1.
    auto node0 = mem::make_config(ConfigKind::kNvdram);
    node0.set_numa_node(0);
    auto node1 = mem::make_config(ConfigKind::kNvdram);
    node1.set_numa_node(1);
    const double bw0 =
        measure_copy(node0, kGiB, CopyDirection::kGpuToHost)
            .bandwidth.as_gb_per_s();
    const double bw1 =
        measure_copy(node1, kGiB, CopyDirection::kGpuToHost)
            .bandwidth.as_gb_per_s();
    EXPECT_LT(bw0, bw1);
}

TEST(Membench, MemoryModeTracksDramInTheSweep)
{
    // Fig. 3a: MM-0/MM-1 overlap DRAM because sweep buffers fit the
    // DRAM cache.
    const auto dram = mem::make_config(ConfigKind::kDram);
    const auto mm = mem::make_config(ConfigKind::kMemoryMode);
    const double dram_bw =
        measure_copy(dram, 8 * kGiB, CopyDirection::kHostToGpu)
            .bandwidth.as_gb_per_s();
    const double mm_bw =
        measure_copy(mm, 8 * kGiB, CopyDirection::kHostToGpu)
            .bandwidth.as_gb_per_s();
    EXPECT_NEAR(mm_bw / dram_bw, 1.0, 0.06);
}

TEST(Membench, MemoryModeD2hNode0BelowNode1)
{
    // Fig. 3b: DRAM-0, DRAM-1, and MM-1 overlap; MM-0 does not.
    auto mm0 = mem::make_config(ConfigKind::kMemoryMode);
    mm0.set_numa_node(0);
    auto mm1 = mem::make_config(ConfigKind::kMemoryMode);
    mm1.set_numa_node(1);
    const double bw0 = measure_copy(mm0, kGiB, CopyDirection::kGpuToHost)
                           .bandwidth.as_gb_per_s();
    const double bw1 = measure_copy(mm1, kGiB, CopyDirection::kGpuToHost)
                           .bandwidth.as_gb_per_s();
    EXPECT_LT(bw0, bw1 * 0.8);
    // MM-1 overlaps DRAM-1.
    auto dram1 = mem::make_config(ConfigKind::kDram);
    dram1.set_numa_node(1);
    const double dram_bw =
        measure_copy(dram1, kGiB, CopyDirection::kGpuToHost)
            .bandwidth.as_gb_per_s();
    EXPECT_NEAR(bw1 / dram_bw, 1.0, 0.06);
}

TEST(Membench, SweepCoversEveryTuple)
{
    const std::vector<mem::HostSpec> kinds{ConfigKind::kDram,
                                           ConfigKind::kNvdram};
    const std::vector<Bytes> buffers{256 * kMiB, kGiB};
    const auto results = sweep(kinds, buffers);
    // 2 configs x 2 nodes x 2 buffers x 2 directions.
    EXPECT_EQ(results.size(), 16u);
    for (const auto &m : results) {
        EXPECT_GT(m.bandwidth.raw(), 0.0);
        EXPECT_GT(m.elapsed, 0.0);
    }
}

TEST(Membench, DirectionNames)
{
    EXPECT_STREQ(copy_direction_name(CopyDirection::kHostToGpu), "h2d");
    EXPECT_STREQ(copy_direction_name(CopyDirection::kGpuToHost), "d2h");
}

} // namespace
} // namespace helm::membench
