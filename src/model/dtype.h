/**
 * @file
 * Tensor element types and size arithmetic.
 *
 * FlexGen serves OPT in FP16 and optionally compresses weights to 4-bit
 * group-wise quantized form (Sec. IV-B / [53]).  Because 4-bit groups
 * carry FP16 scale/zero metadata, sizes are computed per-tensor via
 * tensor_bytes() rather than from a per-element byte count.
 */
#ifndef HELM_MODEL_DTYPE_H
#define HELM_MODEL_DTYPE_H

#include <cstdint>

#include "common/units.h"

namespace helm::model {

/** Element types the runtime understands. */
enum class DataType
{
    kFp32,
    kFp16,
    kInt8,
    kInt4Grouped, //!< 4-bit group-wise quantized (FlexGen's compression)
};

/** Elements per quantization group for kInt4Grouped (FlexGen default). */
inline constexpr std::uint64_t kQuantGroupSize = 64;

/** Metadata bytes per group: FP16 scale + FP16 zero-point. */
inline constexpr std::uint64_t kQuantGroupMetadataBytes = 4;

/**
 * Storage bytes for @p elements of @p dtype, including group metadata
 * for quantized types (partial trailing groups round up).
 */
Bytes tensor_bytes(std::uint64_t elements, DataType dtype);

} // namespace helm::model

#endif // HELM_MODEL_DTYPE_H
