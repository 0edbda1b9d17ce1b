#include "model/dtype.h"

#include "common/status.h"

namespace helm::model {

Bytes
tensor_bytes(std::uint64_t elements, DataType dtype)
{
    switch (dtype) {
      case DataType::kFp32:
        return elements * 4;
      case DataType::kFp16:
        return elements * 2;
      case DataType::kInt8:
        return elements;
      case DataType::kInt4Grouped: {
        // 4 bits per element, packed two per byte, plus per-group scale
        // and zero-point in FP16.
        const std::uint64_t payload = (elements + 1) / 2;
        const std::uint64_t groups =
            (elements + kQuantGroupSize - 1) / kQuantGroupSize;
        return payload + groups * kQuantGroupMetadataBytes;
      }
    }
    HELM_ASSERT(false, "unknown DataType");
    return 0;
}

} // namespace helm::model
