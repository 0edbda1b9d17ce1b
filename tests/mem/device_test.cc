/**
 * @file
 * Unit tests for the memory device models against the paper's anchors.
 */
#include <gtest/gtest.h>

#include "mem/calibration.h"
#include "mem/device.h"
#include "placement/ndp_aware.h"

namespace helm::mem {
namespace {

TEST(Device, FactoryKindsAndNames)
{
    EXPECT_EQ(make_dram()->kind(), MemoryKind::kDram);
    EXPECT_EQ(make_optane()->kind(), MemoryKind::kOptane);
    EXPECT_EQ(make_memory_mode()->kind(), MemoryKind::kMemoryMode);
    EXPECT_EQ(make_ssd()->kind(), MemoryKind::kSsd);
    EXPECT_EQ(make_fsdax()->kind(), MemoryKind::kFsdax);
    EXPECT_EQ(make_cxl_fpga()->kind(), MemoryKind::kCxl);
    EXPECT_STREQ(memory_kind_name(MemoryKind::kOptane), "NVDRAM");
    EXPECT_EQ(make_optane()->name(), "NVDRAM");
}

TEST(Device, Capacities)
{
    // Table I: 256 GB DRAM and 1 TB Optane across the system.
    EXPECT_EQ(make_dram()->capacity(), 256 * kGiB);
    EXPECT_EQ(make_optane()->capacity(), 1024 * kGiB);
}

TEST(Device, DramIsFlatAcrossBufferSizes)
{
    auto dram = make_dram();
    const double small = dram->read_bandwidth(256 * kMiB).as_gb_per_s();
    const double large = dram->read_bandwidth(32 * kGiB).as_gb_per_s();
    EXPECT_DOUBLE_EQ(small, large);
    EXPECT_DOUBLE_EQ(small, cal::kDramReadGBs);
}

TEST(Device, OptaneColdReadDecaysWithBufferSize)
{
    auto optane = make_optane();
    const double at_4g =
        optane->cold_read_bandwidth(4 * kGiB).as_gb_per_s();
    const double at_32g =
        optane->cold_read_bandwidth(32 * kGiB).as_gb_per_s();
    EXPECT_NEAR(at_4g, cal::kOptaneReadSmallGBs, 1e-9);
    EXPECT_NEAR(at_32g, cal::kOptaneColdReadLargeGBs, 1e-9);
    EXPECT_LT(at_32g, at_4g);
}

TEST(Device, OptaneStreamingDecaysGentlyWithResidentSet)
{
    auto optane = std::dynamic_pointer_cast<OptaneDevice>(make_optane());
    ASSERT_NE(optane, nullptr);
    const double small = optane->read_bandwidth(512 * kMiB).as_gb_per_s();
    optane->set_resident_bytes(300 * kGiB);
    const double resident_large =
        optane->read_bandwidth(512 * kMiB).as_gb_per_s();
    EXPECT_NEAR(small, cal::kOptaneReadSmallGBs, 1e-9);
    EXPECT_LT(resident_large, small);
    // Streaming floor stays well above the cold-copy floor.
    EXPECT_GT(resident_large, cal::kOptaneColdReadLargeGBs);
}

TEST(Device, OptaneWriteFarBelowRead)
{
    auto optane = make_optane();
    const double read = optane->read_bandwidth(kGiB, 1).as_gb_per_s();
    const double write = optane->write_bandwidth(kGiB, 1).as_gb_per_s();
    // Sec. II-C: ~6x lower write than read for Optane.
    EXPECT_LT(write, read / 4.0);
    EXPECT_NEAR(write, cal::kOptaneWriteGBs, 0.01);
}

TEST(Device, OptaneWriteNumaAsymmetry)
{
    // Fig. 3b: NVDRAM write bandwidth differs across sockets.
    auto optane = make_optane();
    const double node0 = optane->write_bandwidth(kGiB, 0).as_gb_per_s();
    const double node1 = optane->write_bandwidth(kGiB, 1).as_gb_per_s();
    EXPECT_LT(node0, node1);
    EXPECT_NEAR(node0 / node1, cal::kOptaneWriteRemoteFactor, 1e-9);
}

TEST(Device, OptaneReadNumaSymmetricInFig3)
{
    // Fig. 3a: NVDRAM-0 and NVDRAM-1 h2d overlap.
    auto optane = make_optane();
    EXPECT_DOUBLE_EQ(optane->read_bandwidth(kGiB, 0).raw(),
                     optane->read_bandwidth(kGiB, 1).raw());
}

TEST(Device, MemoryModeHitRatio)
{
    auto mm = make_memory_mode();
    // Working sets inside the 256 GiB DRAM cache hit fully.
    EXPECT_DOUBLE_EQ(mm->hit_ratio(64 * kGiB), 1.0);
    EXPECT_DOUBLE_EQ(mm->hit_ratio(256 * kGiB), 1.0);
    // 512 GiB working set: half the set is cached.
    EXPECT_DOUBLE_EQ(mm->hit_ratio(512 * kGiB), 0.5);
    EXPECT_DOUBLE_EQ(mm->hit_ratio(0), 1.0);
}

TEST(Device, MemoryModeReadDegradesWhenResidentExceedsCache)
{
    auto mm = make_memory_mode();
    const double fits = mm->read_bandwidth(kGiB).as_gb_per_s();
    mm->set_resident_bytes(512 * kGiB);
    const double thrash = mm->read_bandwidth(kGiB).as_gb_per_s();
    EXPECT_LT(thrash, fits);
    // Misses stream at least at the miss-path rate.
    EXPECT_GT(thrash, cal::kMemoryModeMissGBs * 0.9);
}

TEST(Device, StorageDevicesNeedBounceBuffers)
{
    EXPECT_TRUE(make_ssd()->needs_bounce_buffer());
    EXPECT_TRUE(make_fsdax()->needs_bounce_buffer());
    EXPECT_FALSE(make_dram()->needs_bounce_buffer());
    EXPECT_FALSE(make_optane()->needs_bounce_buffer());
    EXPECT_FALSE(make_memory_mode()->needs_bounce_buffer());
}

TEST(Device, FsdaxFasterThanSsd)
{
    // DAX bypasses the page cache (Sec. II-C).
    EXPECT_GT(make_fsdax()->read_bandwidth(kGiB).raw(),
              make_ssd()->read_bandwidth(kGiB).raw());
}

TEST(Device, CxlConfigurationsMatchTable3)
{
    EXPECT_NEAR(make_cxl_fpga()->read_bandwidth(kGiB).as_gb_per_s(),
                cal::kCxlFpgaGBs, 1e-9);
    EXPECT_NEAR(make_cxl_asic()->read_bandwidth(kGiB).as_gb_per_s(),
                cal::kCxlAsicGBs, 1e-9);
    EXPECT_EQ(make_cxl_fpga()->name(), "CXL-FPGA");
    EXPECT_EQ(make_cxl_asic()->name(), "CXL-ASIC");
}

TEST(Device, CxlWritesSlowerThanReads)
{
    auto cxl = make_cxl_asic();
    EXPECT_LT(cxl->write_bandwidth(kGiB).raw(),
              cxl->read_bandwidth(kGiB).raw());
}

TEST(Device, CxlCustomBandwidth)
{
    auto cxl = make_cxl_custom("CXL-X", Bandwidth::gb_per_s(12.0));
    EXPECT_DOUBLE_EQ(cxl->read_bandwidth(kGiB).as_gb_per_s(), 12.0);
    EXPECT_EQ(cxl->name(), "CXL-X");
}

TEST(Device, CxlLatencyExceedsDram)
{
    // Sec. II-D: CXL adds >= 70 ns.
    EXPECT_GE(make_cxl_asic()->latency(),
              make_dram()->latency() + 70e-9);
}

TEST(Device, OptaneLatencyExceedsDram)
{
    EXPECT_GT(make_optane()->latency(), make_dram()->latency());
}

TEST(Device, NodeOneDeratesReadsAndWritesIndependently)
{
    MemoryDevice device("derated", MemoryKind::kDram, kGiB,
                        BandwidthCurve(Bandwidth::gb_per_s(40.0)),
                        BandwidthCurve(Bandwidth::gb_per_s(30.0)),
                        100e-9);
    device.set_write_node_factors({1.0, 0.5});
    // Node 0 (GPU-local) is untouched.
    EXPECT_DOUBLE_EQ(device.read_bandwidth(kGiB, 0).as_gb_per_s(), 40.0);
    EXPECT_DOUBLE_EQ(device.write_bandwidth(kGiB, 0).as_gb_per_s(), 30.0);
    // Node 1 pays the cross-socket derate on writes only.
    EXPECT_DOUBLE_EQ(device.read_bandwidth(kGiB, 1).as_gb_per_s(), 40.0);
    EXPECT_DOUBLE_EQ(device.write_bandwidth(kGiB, 1).as_gb_per_s(), 15.0);
    // The cold-copy default path follows the streaming read rate.
    EXPECT_DOUBLE_EQ(device.cold_read_bandwidth(kGiB, 1).as_gb_per_s(),
                     40.0);
}

TEST(Device, ColdNeverBeatsStreamingAcrossSizes)
{
    // Property over the devices with distinct cold curves (Optane's AIT
    // misses, HBF's flash sensing): at every buffer size the one-shot
    // cold copy is at most the steady-state streaming rate, and the
    // cold curve itself never recovers as buffers grow — so the two
    // curves cross at most once and stay crossed.
    for (const DevicePtr &device :
         {std::static_pointer_cast<MemoryDevice>(make_optane()),
          std::static_pointer_cast<MemoryDevice>(make_hbf())}) {
        double prev_cold = device->cold_read_bandwidth(kMiB).raw();
        for (Bytes size = kMiB; size <= 256 * kGiB; size *= 2) {
            const double cold =
                device->cold_read_bandwidth(size).raw();
            const double streaming = device->read_bandwidth(size).raw();
            EXPECT_LE(cold, streaming * (1.0 + 1e-9))
                << device->name() << " at " << size;
            EXPECT_LE(cold, prev_cold * (1.0 + 1e-9))
                << device->name() << " at " << size;
            prev_cold = cold;
        }
    }
}

TEST(Device, NdpDimmGemvTimeIsJointlyLimited)
{
    auto ndp = make_ndp_dimm();
    EXPECT_EQ(ndp->kind(), MemoryKind::kNdpDimm);
    EXPECT_EQ(ndp->capacity(), 512 * kGiB); // 2 sockets x 256 GiB
    // The schedule compiler prices near-data steps from the device's
    // rates through placement::ndp_execution_time.
    placement::NdpProfile profile;
    profile.gemv_rate = ndp->gemv_rate();
    profile.gemv_flops = ndp->gemv_flops();
    auto gemv_time = [&](Bytes bytes, double flops) {
        return placement::ndp_execution_time(profile, bytes, flops);
    };
    // Bandwidth-bound regime: many bytes, trivial FLOPs.
    const Bytes big = 64ull * kGiB;
    EXPECT_NEAR(gemv_time(big, 1.0),
                static_cast<double>(big) / ndp->gemv_rate().raw(), 1e-9);
    // Compute-bound regime: trivial bytes, many FLOPs.
    const double flops = 1e13;
    EXPECT_NEAR(gemv_time(1, flops), flops / ndp->gemv_flops(), 1e-9);
    // The time is max(stream, compute), not the sum: at the balance
    // point both bounds coincide.
    const Bytes balanced = static_cast<Bytes>(
        ndp->gemv_rate().raw() * (flops / ndp->gemv_flops()));
    EXPECT_NEAR(gemv_time(balanced, flops), flops / ndp->gemv_flops(),
                1e-6);
}

TEST(Device, HbfEnduranceCounterDrainsToZeroAndClamps)
{
    auto hbf = make_hbf();
    EXPECT_EQ(hbf->kind(), MemoryKind::kHbf);
    const Bytes budget = hbf->endurance_budget();
    EXPECT_GT(budget, 0u);
    EXPECT_EQ(hbf->written_bytes(), 0u);
    EXPECT_EQ(hbf->endurance_remaining(), budget);
    EXPECT_FALSE(hbf->endurance_exhausted());

    hbf->record_write(kGiB);
    EXPECT_EQ(hbf->written_bytes(), kGiB);
    EXPECT_EQ(hbf->endurance_remaining(), budget - kGiB);

    // Overshoot: remaining clamps at zero instead of wrapping.
    hbf->record_write(budget);
    EXPECT_EQ(hbf->endurance_remaining(), 0u);
    EXPECT_TRUE(hbf->endurance_exhausted());
}

TEST(Device, HbfWarmReadsAreFastAndWritesSlow)
{
    auto hbf = make_hbf();
    // Warm streaming runs at HBM-class rates (the PCIe link caps the
    // copy path, not the device); programs crawl.
    EXPECT_GT(hbf->read_bandwidth(kGiB).as_gb_per_s(), 100.0);
    EXPECT_LT(hbf->write_bandwidth(kGiB).as_gb_per_s(), 4.0);
    EXPECT_EQ(hbf->capacity(), 10 * kTiB);
}

TEST(Device, MemoryKindNamesCoverTheZoo)
{
    EXPECT_STREQ(memory_kind_name(MemoryKind::kNdpDimm), "NDP-DIMM");
    EXPECT_STREQ(memory_kind_name(MemoryKind::kHbf), "HBF");
    EXPECT_STREQ(memory_kind_name(MemoryKind::kDram), "DRAM");
    EXPECT_EQ(make_ndp_dimm()->name(),
              memory_kind_name(MemoryKind::kNdpDimm));
    EXPECT_EQ(make_hbf()->name(), memory_kind_name(MemoryKind::kHbf));
}

} // namespace
} // namespace helm::mem
