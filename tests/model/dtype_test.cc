/**
 * @file
 * Unit tests for dtype size arithmetic and group-wise quantization.
 */
#include <gtest/gtest.h>

#include "model/dtype.h"

namespace helm::model {
namespace {

TEST(Dtype, PlainSizes)
{
    EXPECT_EQ(tensor_bytes(100, DataType::kFp32), 400u);
    EXPECT_EQ(tensor_bytes(100, DataType::kFp16), 200u);
    EXPECT_EQ(tensor_bytes(100, DataType::kInt8), 100u);
    EXPECT_EQ(tensor_bytes(0, DataType::kFp16), 0u);
}

TEST(Dtype, Int4GroupedIncludesMetadata)
{
    // One full group: 64 elements -> 32 payload bytes + 4 metadata.
    EXPECT_EQ(tensor_bytes(64, DataType::kInt4Grouped), 36u);
    // Two groups.
    EXPECT_EQ(tensor_bytes(128, DataType::kInt4Grouped), 72u);
}

TEST(Dtype, Int4PartialGroupsRoundUp)
{
    // 65 elements: 33 payload bytes (odd count rounds up) + 2 groups.
    EXPECT_EQ(tensor_bytes(65, DataType::kInt4Grouped), 33u + 8u);
    // 1 element: 1 payload byte + 1 group's metadata.
    EXPECT_EQ(tensor_bytes(1, DataType::kInt4Grouped), 5u);
}

TEST(Dtype, CompressionRatioNearlyAQuarter)
{
    // Paper Sec. IV-B: 4-bit group-wise quantization reduces the model
    // "to nearly a quarter".
    // A large tensor, so partial-group rounding is negligible.
    constexpr std::uint64_t kProbe = 1ull << 24;
    auto ratio = [](DataType dtype) {
        return static_cast<double>(tensor_bytes(kProbe, dtype)) /
               static_cast<double>(tensor_bytes(kProbe, DataType::kFp16));
    };
    EXPECT_NEAR(ratio(DataType::kInt4Grouped), 0.28125, 1e-6);
    EXPECT_DOUBLE_EQ(ratio(DataType::kFp16), 1.0);
    EXPECT_DOUBLE_EQ(ratio(DataType::kFp32), 2.0);
    EXPECT_DOUBLE_EQ(ratio(DataType::kInt8), 0.5);
}

} // namespace
} // namespace helm::model
