/**
 * @file
 * Unit tests for the sweep framework: Dataset and the serving-aware
 * cartesian runner.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "model/opt.h"
#include "sweep/sweep.h"

namespace helm::sweep {
namespace {

Dataset
sample_dataset()
{
    Dataset d;
    d.add_row({{"memory", "NVDRAM"}, {"batch", "1"}, {"tbt", "5.6"}});
    d.add_row({{"memory", "NVDRAM"}, {"batch", "8"}, {"tbt", "5.7"}});
    d.add_row({{"memory", "DRAM"}, {"batch", "1"}, {"tbt", "4.9"}});
    d.add_row({{"memory", "DRAM"}, {"batch", "8"}, {"tbt", "5.0"}});
    return d;
}

TEST(Dataset, SchemaAccumulatesInOrder)
{
    Dataset d;
    d.add_row({{"a", "1"}});
    d.add_row({{"b", "2"}, {"a", "3"}});
    EXPECT_EQ(d.columns(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(d.size(), 2u);
    EXPECT_EQ(d.cell(0, "b"), ""); // absent cell
    EXPECT_EQ(d.cell(1, "a"), "3");
}

TEST(Dataset, NumericParsing)
{
    // Pivot cells parse the value column; text that is no number
    // counts as 0.
    Dataset d;
    d.add_row({{"r", "x"}, {"c", "1"}, {"v", "5.6"}});
    d.add_row({{"r", "y"}, {"c", "1"}, {"v", "NVDRAM"}});
    const std::string text = d.pivot("r", "c", "v", 2).to_string();
    EXPECT_NE(text.find("5.60"), std::string::npos);
    EXPECT_NE(text.find("0.00"), std::string::npos);
}

TEST(Dataset, DistinctAndFilter)
{
    // Rows and columns are the distinct keys in first-seen order, and
    // each cell sees only its own (row, column) observations.
    const std::string text =
        sample_dataset().pivot("memory", "batch", "tbt", 2).to_string();
    const std::size_t nvdram = text.find("NVDRAM");
    const std::size_t dram = text.find("DRAM", nvdram + 6);
    ASSERT_NE(nvdram, std::string::npos);
    ASSERT_NE(dram, std::string::npos);
    EXPECT_LT(nvdram, dram);
    EXPECT_LT(text.find("5.60"), text.find("5.70"));
    EXPECT_LT(text.find("5.70"), text.find("4.90"));
    EXPECT_LT(text.find("4.90"), text.find("5.00"));
}

TEST(Dataset, Aggregates)
{
    // Colliding observations render as their mean.
    Dataset d = sample_dataset();
    d.add_row({{"memory", "DRAM"}, {"batch", "8"}, {"tbt", "6.0"}});
    const std::string text = d.pivot("memory", "batch", "tbt", 2).to_string();
    EXPECT_NE(text.find("5.50"), std::string::npos);
    EXPECT_EQ(text.find("5.00"), std::string::npos);
}

TEST(Dataset, PivotTable)
{
    const Dataset d = sample_dataset();
    const std::string text =
        d.pivot("memory", "batch", "tbt", 1).to_string();
    EXPECT_NE(text.find("NVDRAM"), std::string::npos);
    EXPECT_NE(text.find("5.6"), std::string::npos);
    EXPECT_NE(text.find("4.9"), std::string::npos);
    // Missing combinations render as "-".
    Dataset sparse;
    sparse.add_row({{"r", "x"}, {"c", "1"}, {"v", "10"}});
    sparse.add_row({{"r", "y"}, {"c", "2"}, {"v", "20"}});
    const std::string sparse_text =
        sparse.pivot("r", "c", "v", 0).to_string();
    EXPECT_NE(sparse_text.find("-"), std::string::npos);
}

TEST(Dataset, CsvRoundTripShape)
{
    std::ostringstream out;
    sample_dataset().write_csv(out);
    const std::string csv = out.str();
    // Rows are std::map-backed, so the schema lands alphabetically.
    EXPECT_NE(csv.find("batch,memory,tbt"), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5); // header+4
}

TEST(SweepRunner, CartesianEnumeration)
{
    SweepRunner runner;
    ASSERT_TRUE(runner.add_dimension("a", {"1", "2", "3"}).is_ok());
    ASSERT_TRUE(runner.add_dimension("b", {"x", "y"}).is_ok());
    EXPECT_EQ(runner.point_count(), 6u);
    int calls = 0;
    const Dataset d = runner.run([&](const Row &point) -> Result<Row> {
        ++calls;
        Row metrics;
        metrics["concat"] = point.at("a") + point.at("b");
        return metrics;
    });
    EXPECT_EQ(calls, 6);
    EXPECT_EQ(d.size(), 6u);
    // Last dimension varies fastest.
    EXPECT_EQ(d.cell(0, "concat"), "1x");
    EXPECT_EQ(d.cell(1, "concat"), "1y");
    EXPECT_EQ(d.cell(2, "concat"), "2x");
    EXPECT_EQ(d.cell(5, "concat"), "3y");
}

TEST(SweepRunner, ErrorsBecomeErrorColumn)
{
    SweepRunner runner;
    ASSERT_TRUE(runner.add_dimension("v", {"ok", "bad"}).is_ok());
    const Dataset d = runner.run([](const Row &point) -> Result<Row> {
        if (point.at("v") == "bad")
            return Status::invalid_argument("boom");
        return Row{{"out", "fine"}};
    });
    EXPECT_EQ(d.size(), 2u);
    EXPECT_EQ(d.cell(0, "out"), "fine");
    EXPECT_NE(d.cell(1, "error").find("boom"), std::string::npos);
}

TEST(SweepRunner, RejectsBadDimensions)
{
    SweepRunner runner;
    EXPECT_FALSE(runner.add_dimension("", {"1"}).is_ok());
    EXPECT_FALSE(runner.add_dimension("a", {}).is_ok());
    ASSERT_TRUE(runner.add_dimension("a", {"1"}).is_ok());
    EXPECT_FALSE(runner.add_dimension("a", {"2"}).is_ok());
}

TEST(ServingSweep, RecognizedDimensions)
{
    runtime::ServingSpec base;
    base.model = model::opt_config(model::OptVariant::kOpt1_3B);
    ServingSweep sweep(base);
    EXPECT_TRUE(sweep.add_dimension("memory", {"DRAM"}).is_ok());
    EXPECT_TRUE(sweep.add_dimension("kv_offload", {"1"}).is_ok());
    EXPECT_FALSE(sweep.add_dimension("bogus", {"1"}).is_ok());
    // Zoo devices are memory values; there is no separate axis.
    EXPECT_FALSE(sweep.add_dimension("device", {"HBF"}).is_ok());
}

TEST(ServingSweep, EndToEndGrid)
{
    runtime::ServingSpec base;
    base.model = model::opt_config(model::OptVariant::kOpt1_3B);
    base.repeats = 1;
    ServingSweep sweep(base);
    ASSERT_TRUE(
        sweep.add_dimension("memory", {"NVDRAM", "DRAM"}).is_ok());
    ASSERT_TRUE(
        sweep.add_dimension("placement", {"Baseline", "All-CPU"})
            .is_ok());
    ASSERT_TRUE(sweep.add_dimension("batch", {"1", "4"}).is_ok());
    EXPECT_EQ(sweep.point_count(), 8u);
    const Dataset d = sweep.run();
    ASSERT_EQ(d.size(), 8u);
    // DRAM never slower than NVDRAM at matched points.
    double nvdram_tbt = 0.0, dram_tbt = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_EQ(d.cell(i, "error"), "") << "row " << i;
        EXPECT_GT(std::stod(d.cell(i, "tokens_per_s")), 0.0);
        const double tbt = std::stod(d.cell(i, "tbt_ms"));
        EXPECT_GT(tbt, 0.0);
        (d.cell(i, "memory") == "DRAM" ? dram_tbt : nvdram_tbt) += tbt;
    }
    EXPECT_LE(dram_tbt, nvdram_tbt);
}

TEST(ServingSweep, MemoryAxisTakesEveryRegisteredDevice)
{
    runtime::ServingSpec base;
    base.model = model::opt_config(model::OptVariant::kOpt1_3B);
    base.repeats = 1;
    ServingSweep sweep(base);
    ASSERT_TRUE(
        sweep.add_dimension("memory", {"NVDRAM", "hbf", "abacus"}).is_ok());
    const Dataset d = sweep.run();
    ASSERT_EQ(d.size(), 3u);
    EXPECT_EQ(d.cell(0, "error"), "");
    EXPECT_EQ(d.cell(1, "error"), "");
    EXPECT_NE(d.cell(0, "tbt_ms"), d.cell(1, "tbt_ms"));
    EXPECT_NE(d.cell(2, "error").find("abacus"), std::string::npos);
}

TEST(ServingSweep, NamesMatchInAnyCase)
{
    // The spellings `helmsim run` accepts, Balanced included: each row
    // succeeds and equals the canonical spelling's row.
    runtime::ServingSpec base;
    base.repeats = 1;
    const auto sweep_of = [&base](std::vector<std::string> placements,
                                  std::string site, std::string model) {
        ServingSweep sweep(base);
        EXPECT_TRUE(sweep.add_dimension("model", {model}).is_ok());
        EXPECT_TRUE(
            sweep.add_dimension("placement", std::move(placements)).is_ok());
        EXPECT_TRUE(sweep.add_dimension("compute_site", {site}).is_ok());
        return sweep.run();
    };
    const Dataset typed =
        sweep_of({"baseline", "Balanced"}, "GPU", "opt-1.3b");
    const Dataset canonical =
        sweep_of({"Baseline", "Balanced"}, "gpu", "OPT-1.3B");
    ASSERT_EQ(typed.size(), 2u);
    ASSERT_EQ(canonical.size(), 2u);
    for (std::size_t i = 0; i < typed.size(); ++i) {
        EXPECT_EQ(typed.cell(i, "error"), "") << "row " << i;
        for (const char *metric :
             {"ttft_ms", "tbt_ms", "tokens_per_s", "gpu_used_bytes"}) {
            EXPECT_NE(typed.cell(i, metric), "") << metric;
            EXPECT_EQ(typed.cell(i, metric), canonical.cell(i, metric))
                << "row " << i << " " << metric;
        }
    }
}

TEST(ServingSweep, BadModelValueReportsError)
{
    runtime::ServingSpec base;
    base.model = model::opt_config(model::OptVariant::kOpt1_3B);
    base.repeats = 1;
    ServingSweep sweep(base);
    ASSERT_TRUE(sweep.add_dimension("model", {"GPT-J"}).is_ok());
    const Dataset d = sweep.run();
    ASSERT_EQ(d.size(), 1u);
    EXPECT_NE(d.cell(0, "error"), "");
}

} // namespace
} // namespace helm::sweep
