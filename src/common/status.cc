#include "common/status.h"

namespace helm {

const char *
status_code_name(StatusCode code)
{
    switch (code) {
      case StatusCode::kOk:
        return "OK";
      case StatusCode::kInvalidArgument:
        return "INVALID_ARGUMENT";
      case StatusCode::kCapacityExceeded:
        return "CAPACITY_EXCEEDED";
      case StatusCode::kFailedPrecondition:
        return "FAILED_PRECONDITION";
      case StatusCode::kNotFound:
        return "NOT_FOUND";
      case StatusCode::kInternal:
        return "INTERNAL";
    }
    return "UNKNOWN";
}

std::string
Status::to_string() const
{
    if (is_ok())
        return "OK";
    std::string out = status_code_name(code_);
    if (!message_.empty()) {
        out += ": ";
        out += message_;
    }
    return out;
}

} // namespace helm
