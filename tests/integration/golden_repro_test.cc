/**
 * @file
 * Golden regression pins for the reproduction scorecard
 * (bench/repro_summary).  PaperResults tests check the numbers land
 * within the paper's tolerances; these pin the simulator's *own*
 * current outputs tightly, so an accidental model change that stays
 * inside the paper band still trips a test.  If a deliberate model
 * change moves a number, re-run bench/repro_summary and update the
 * constant here in the same commit.
 */
#include <gtest/gtest.h>

#include <map>

#include "model/opt.h"
#include "placement/baseline.h"
#include "runtime/engine.h"
#include "runtime/instrument.h"
#include "runtime/planner.h"

namespace helm::runtime {
namespace {

using model::OptVariant;
using placement::PlacementKind;

InferenceMetrics
metrics_175b(mem::ConfigKind memory, PlacementKind placement,
             std::uint64_t batch)
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = memory;
    spec.placement = placement;
    spec.compress_weights = true;
    spec.batch = batch;
    spec.repeats = 2;
    spec.keep_records = false;
    auto result = simulate_inference(spec);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return result->metrics;
}

TEST(GoldenRepro, MaxBatchHeadlinesExact)
{
    const auto config = model::opt_config(OptVariant::kOpt175B);
    const auto gpu = gpu::GpuSpec::a100_40gb();
    model::SequenceShape shape;
    const auto fp16 = model::build_layers(config, model::DataType::kFp16);
    const auto int4 =
        model::build_layers(config, model::DataType::kInt4Grouped);
    const auto map = placement::place_baseline(
        fp16, placement::Policy::host_offload());

    EXPECT_EQ(max_batch(gpu, config, fp16,
                        map.tier_total(placement::Tier::kGpu), shape,
                        false),
              8u);
    EXPECT_EQ(max_batch(gpu, config, int4, 0, shape, true), 44u);
}

TEST(GoldenRepro, Fig11LatencyDeltasPinned)
{
    const auto base_nv = metrics_175b(mem::ConfigKind::kNvdram,
                                      PlacementKind::kBaseline, 1);
    const auto helm_nv = metrics_175b(mem::ConfigKind::kNvdram,
                                      PlacementKind::kHelm, 1);
    const auto helm_dram = metrics_175b(mem::ConfigKind::kDram,
                                        PlacementKind::kHelm, 1);
    const auto helm_mm = metrics_175b(mem::ConfigKind::kMemoryMode,
                                      PlacementKind::kHelm, 1);

    const double tbt_gain = 100.0 * (1.0 - helm_nv.tbt / base_nv.tbt);
    const double ttft_gain =
        100.0 * (1.0 - helm_nv.ttft / base_nv.ttft);
    const double nv_gap =
        100.0 * (helm_nv.tbt / helm_dram.tbt - 1.0);
    const double mm_gap =
        100.0 * (helm_mm.tbt / helm_dram.tbt - 1.0);

    EXPECT_NEAR(tbt_gain, 28.4702, 0.05);
    EXPECT_NEAR(ttft_gain, 26.9125, 0.05);
    EXPECT_NEAR(nv_gap, 9.9905, 0.05);
    EXPECT_NEAR(mm_gap, 2.0963, 0.05);
}

TEST(GoldenRepro, Fig12ThroughputHeadlinesPinned)
{
    const auto base8 = metrics_175b(mem::ConfigKind::kNvdram,
                                    PlacementKind::kBaseline, 8);
    const auto cpu44 = metrics_175b(mem::ConfigKind::kNvdram,
                                    PlacementKind::kAllCpu, 44);
    const auto cpu44_dram = metrics_175b(mem::ConfigKind::kDram,
                                         PlacementKind::kAllCpu, 44);

    const double gain = cpu44.throughput / base8.throughput;
    const double gap =
        100.0 * (1.0 - cpu44.throughput / cpu44_dram.throughput);
    EXPECT_NEAR(gain, 4.9969, 0.005);
    EXPECT_NEAR(gap, 10.8768, 0.05);
}

TEST(GoldenRepro, Fig5AttributionRatiosPinned)
{
    // The paper's Figs. 5/8 time breakdown as the attribution artifact:
    // OPT-175B int4 on NVDRAM, Baseline placement, batch 1 — the
    // transfer-bound regime whose MHA-load bottleneck motivates HeLM.
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = PlacementKind::kBaseline;
    spec.compress_weights = true;
    spec.batch = 1;
    spec.repeats = 2;
    auto result = simulate_inference(spec);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();

    const telemetry::TimeAttribution attribution = attribute_records(
        result->records, spec.gpu.layer_overhead,
        result->metrics.total_time);

    // The decomposition must tile the run's wall time (0.1% acceptance
    // bound; it is exact by construction).
    EXPECT_NEAR(attribution.attributed_total(),
                result->metrics.total_time,
                1e-3 * result->metrics.total_time);

    // Internal consistency: each layer type's compute bucket must match
    // the records' own kernel + launch-overhead seconds (within 10% —
    // attribution clamps compute to the step span).
    std::map<std::string, Seconds> kernel_seconds;
    for (const auto &rec : result->records) {
        kernel_seconds[model::layer_type_name(rec.type)] +=
            rec.compute_time + spec.gpu.layer_overhead;
    }
    for (const auto &[layer, bucket] : attribution.buckets()) {
        EXPECT_NEAR(bucket.compute, kernel_seconds.at(layer),
                    0.10 * kernel_seconds.at(layer))
            << layer;
    }

    // Fig. 5/8 headline ratios, pinned tightly (repro_summary values).
    const auto &mha = attribution.buckets().at("mha");
    const auto &ffn = attribution.buckets().at("ffn");
    const double mha_exposed_over_compute = mha.transfer / mha.compute;
    const double ffn_exposed_over_compute = ffn.transfer / ffn.compute;
    const double transfer_share_of_wall =
        (mha.transfer + ffn.transfer) / attribution.wall();
    // MHA is the transfer-bound stage (its sync eats the FFN load);
    // FFN's own load hides almost entirely under MHA compute.
    EXPECT_NEAR(mha_exposed_over_compute, 2.0436, 0.01);
    EXPECT_NEAR(ffn_exposed_over_compute, 0.0, 0.01);
    EXPECT_NEAR(transfer_share_of_wall, 0.4044, 0.002);
}

} // namespace
} // namespace helm::runtime
