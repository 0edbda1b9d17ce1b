/**
 * @file
 * Unit tests for Chrome-trace export.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "model/opt.h"
#include "runtime/engine.h"
#include "runtime/trace.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

RunResult
small_run()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.batch = 2;
    spec.repeats = 1;
    spec.shape.output_tokens = 3;
    auto result = simulate_inference(spec);
    EXPECT_TRUE(result.is_ok());
    return std::move(result).value();
}

TEST(Trace, JsonShapeAndContent)
{
    const auto result = small_run();
    const std::string json = chrome_trace_json(result.records);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("GPU compute"), std::string::npos);
    EXPECT_NE(json.find("h2d transfers"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("mha"), std::string::npos);
    EXPECT_NE(json.find("ffn"), std::string::npos);
    // One compute event per record at minimum.
    std::size_t events = 0, pos = 0;
    while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
        ++events;
        pos += 8;
    }
    EXPECT_GE(events, result.records.size());
}

TEST(Trace, ClusterRecordsGetOneProcessRowPerGpu)
{
    const auto result = small_run();
    // Duplicate the single-GPU records onto a second GPU: the trace
    // must grow a second process row ("GPU 1") with its own compute
    // and PCIe tracks, while GPU 0's rows keep pid 0.
    auto records = result.records;
    const std::size_t single = records.size();
    records.insert(records.end(), result.records.begin(),
                   result.records.end());
    for (std::size_t i = single; i < records.size(); ++i)
        records[i].gpu_index = 1;

    const std::string json = chrome_trace_json(records);
    EXPECT_NE(json.find("\"name\":\"GPU 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"GPU 1\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1,\"tid\":1"), std::string::npos);
    std::size_t pid1_events = 0, pos = 0;
    while ((pos = json.find("\"pid\":1", pos)) != std::string::npos) {
        ++pid1_events;
        pos += 7;
    }
    // At least one compute event per duplicated record, plus metadata.
    EXPECT_GE(pid1_events, single);
}

TEST(Trace, WritesFile)
{
    const auto result = small_run();
    const std::string path = "/tmp/helm_trace_test.json";
    ASSERT_TRUE(write_chrome_trace(result.records, path).is_ok());
    std::ifstream file(path);
    ASSERT_TRUE(file.is_open());
    std::string first_line;
    std::getline(file, first_line);
    EXPECT_NE(first_line.find("traceEvents"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Trace, EmptyRecordsRejected)
{
    EXPECT_EQ(write_chrome_trace({}, "/tmp/never.json").code(),
              StatusCode::kFailedPrecondition);
}

TEST(Trace, BadPathRejected)
{
    const auto result = small_run();
    EXPECT_FALSE(
        write_chrome_trace(result.records, "/nonexistent-dir/x.json")
            .is_ok());
}

} // namespace
} // namespace helm::runtime
