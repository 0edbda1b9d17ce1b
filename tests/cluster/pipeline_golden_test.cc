/**
 * @file
 * Pins the pipeline executor's saturation runs to captured text: every
 * timing, byte count and record of run_saturated(), rendered at %.17g
 * (pipeline_golden.inc says where each part was captured).  The cases cover what the
 * end-to-end identity runs do not reach — blocking KV reads, storage
 * weight flows, one micro-batch, as many as stages and one more, 2 and
 * 4 stages — all with records kept, and checks each case reaches the
 * path it is named for.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <string>

#include "cluster/cluster_engine.h"
#include "model/footprint.h"
#include "model/opt.h"

namespace helm::cluster {
namespace {

#include "pipeline_golden.inc"

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

std::string
render(const SaturationResult &r)
{
    std::string out;
    append(out, "run %.17g %" PRIu64 " %.17g %.17g %.17g\n",
           r.makespan, r.total_tokens, r.aggregate_throughput, r.ttft,
           r.tbt);
    for (const GpuUtilization &g : r.gpus) {
        append(out, "gpu %" PRIu64 " %" PRIu64 " %.17g %" PRIu64
                    " %" PRIu64 " %.17g\n",
               g.gpu, g.batches, g.compute_busy, g.h2d_bytes, g.d2h_bytes,
               g.utilization);
    }
    for (const PortStats &p : r.ports) {
        append(out, "port %s %.17g %" PRIu64 " %.17g %" PRIu64 "\n",
               p.name.c_str(), p.rate.raw(), p.bytes, p.utilization,
               p.throttle_events);
    }
    for (const runtime::LayerStepRecord &rec : r.records) {
        append(out, "rec %" PRIu64 " %" PRIu64 " %" PRIu64 " %d %d %d",
               rec.gpu_index, rec.batch_index, rec.token, rec.layer,
               static_cast<int>(rec.type), static_cast<int>(rec.stage));
        append(out, " %.17g %.17g %" PRIu64 " %" PRIu64 " %" PRIu64,
               rec.compute_time, rec.transfer_time, rec.transfer_bytes,
               rec.host_bytes, rec.disk_bytes);
        append(out, " %" PRIu64 " %" PRIu64 " %.17g %.17g %.17g %.17g %.17g",
               rec.kv_read_bytes, rec.kv_write_bytes, rec.transfer_start,
               rec.step_start, rec.step_end, rec.kv_write_time,
               rec.kv_stall_time);
        for (const runtime::KvTierTraffic &t : rec.kv_tiers) {
            append(out, " kv:%s:%" PRIu64 ":%" PRIu64, t.tier.c_str(),
                   t.read_bytes, t.write_bytes);
        }
        for (const runtime::KvTierOccupancy &o : rec.kv_occupancy)
            append(out, " occ:%s:%" PRIu64, o.tier.c_str(), o.bytes);
        out += '\n';
    }
    return out;
}

/** A managed KV cache whose GPU tier holds only a few full-model
 *  blocks, so every stage's context spills to the host tier. */
kvcache::KvCacheConfig
spilling_kv(const runtime::ServingSpec &serving, bool prefetch)
{
    auto config = kvcache::KvCacheConfig::tiered();
    config.tiers[0].auto_capacity = false;
    config.tiers[0].capacity = 2 * config.block_tokens *
                               model::kv_bytes_per_block(serving.model, 1) *
                               serving.model.blocks;
    config.prefetch = prefetch;
    return config;
}

/** Where the context lives and how the host part is read. */
enum class Kv
{
    kGpu,        //!< no managed tiers: nothing leaves the GPU
    kPrefetched, //!< spilled, read behind the previous token's compute
    kBlocking,   //!< spilled, read before the token's first chunk
};

struct GoldenCase
{
    const char *name;
    std::uint64_t stages;
    std::uint64_t micro_batches;
    mem::ConfigKind memory;
    Kv kv;
    std::uint64_t repeats;
};

constexpr GoldenCase kCases[] = {
    {"s2-m1", 2, 1, mem::ConfigKind::kNvdram, Kv::kGpu, 2},
    {"s2-m2-blocking", 2, 2, mem::ConfigKind::kNvdram, Kv::kBlocking, 1},
    {"s2-m3-storage", 2, 3, mem::ConfigKind::kSsd, Kv::kPrefetched, 1},
    {"s4-m1", 4, 1, mem::ConfigKind::kNvdram, Kv::kGpu, 1},
    {"s4-m4-prefetch", 4, 4, mem::ConfigKind::kNvdram, Kv::kPrefetched, 2},
    {"s4-m5-storage-blocking", 4, 5, mem::ConfigKind::kSsd, Kv::kBlocking,
     1},
};

ClusterSpec
golden_spec(const GoldenCase &c)
{
    ClusterSpec spec;
    spec.serving.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.serving.memory = c.memory;
    spec.serving.batch = 4;
    spec.serving.repeats = c.repeats;
    spec.serving.shape = {32, 3};
    spec.serving.keep_records = false;
    if (c.kv != Kv::kGpu) {
        spec.serving.kv_cache =
            spilling_kv(spec.serving, c.kv == Kv::kPrefetched);
    }
    spec.gpus = c.stages;
    spec.parallelism = Parallelism::kPipeline;
    spec.micro_batches = c.micro_batches;
    return spec;
}

TEST(PipelineGolden, SaturatedRunsMatchCapturedText)
{
    static_assert(std::size(kCases) == std::size(kGolden));
    for (std::size_t i = 0; i < std::size(kCases); ++i) {
        const GoldenCase &c = kCases[i];
        auto result = run_saturated(golden_spec(c), /*keep_records=*/true);
        ASSERT_TRUE(result.is_ok()) << c.name << ": "
                                    << result.status().to_string();
        EXPECT_EQ(render(*result), kGolden[i]) << c.name;

        // Each case reaches the path it is named for.
        Bytes kv_read = 0;
        for (const runtime::LayerStepRecord &rec : result->records)
            kv_read += rec.kv_read_bytes;
        EXPECT_EQ(kv_read > 0, c.kv != Kv::kGpu) << c.name;
        Bytes storage = 0;
        for (const PortStats &p : result->ports) {
            if (p.name == "storage-read")
                storage = p.bytes;
        }
        EXPECT_EQ(storage > 0, c.memory == mem::ConfigKind::kSsd)
            << c.name;
    }
}

} // namespace
} // namespace helm::cluster
