/**
 * @file
 * Lightweight Status / Result<T> error-propagation types.
 *
 * helm-sim is a library first: invalid user input (a policy that does not
 * sum to 100 %, a batch that cannot fit on the GPU) must be reportable
 * without aborting the process.  Status carries an error code and message;
 * Result<T> couples a Status with a value.  Programming errors (broken
 * invariants inside the simulator) still use HELM_ASSERT, mirroring the
 * gem5 fatal()/panic() split.
 */
#ifndef HELM_COMMON_STATUS_H
#define HELM_COMMON_STATUS_H

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace helm {

/** Error categories for Status. */
enum class StatusCode
{
    kOk = 0,
    kInvalidArgument,   //!< caller supplied bad input
    kCapacityExceeded,  //!< requested allocation exceeds a device capacity
    kFailedPrecondition,//!< object not in the right state for the call
    kNotFound,          //!< lookup missed
    kInternal,          //!< invariant violation that was caught gracefully
};

/** Human-readable name of a StatusCode. */
const char *status_code_name(StatusCode code);

/**
 * Outcome of a fallible operation: a code plus an explanatory message.
 */
class Status
{
  public:
    /** Default: success. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    static Status ok() { return Status(); }

    static Status
    invalid_argument(std::string msg)
    {
        return Status(StatusCode::kInvalidArgument, std::move(msg));
    }
    static Status
    capacity_exceeded(std::string msg)
    {
        return Status(StatusCode::kCapacityExceeded, std::move(msg));
    }
    static Status
    failed_precondition(std::string msg)
    {
        return Status(StatusCode::kFailedPrecondition, std::move(msg));
    }
    static Status
    not_found(std::string msg)
    {
        return Status(StatusCode::kNotFound, std::move(msg));
    }
    static Status
    internal(std::string msg)
    {
        return Status(StatusCode::kInternal, std::move(msg));
    }

    bool is_ok() const { return code_ == StatusCode::kOk; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "OK" or "<code>: <message>". */
    std::string to_string() const;

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
};

/**
 * Value-or-Status.  A deliberately small subset of std::expected (which is
 * C++23) sufficient for this codebase.
 */
template <typename T>
class Result
{
  public:
    /** Implicit from a value: success. */
    Result(T value) : value_(std::move(value)) {}

    /** Implicit from a non-OK status: failure. */
    Result(Status status) : status_(std::move(status))
    {
        if (status_.is_ok()) {
            // A Result built from a Status must describe a failure.
            status_ = Status::internal(
                "Result constructed from OK status without a value");
        }
    }

    bool is_ok() const { return value_.has_value(); }
    explicit operator bool() const { return is_ok(); }

    const Status &status() const { return status_; }

    /** Access the value; asserts on failure results. */
    const T &
    value() const &
    {
        check_has_value();
        return *value_;
    }
    T &
    value() &
    {
        check_has_value();
        return *value_;
    }
    T &&
    value() &&
    {
        check_has_value();
        return std::move(*value_);
    }

    const T &operator*() const & { return value(); }
    T &operator*() & { return value(); }
    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

    /** Value if present, otherwise @p fallback. */
    T
    value_or(T fallback) const
    {
        return value_.has_value() ? *value_ : std::move(fallback);
    }

  private:
    void
    check_has_value() const
    {
        if (!value_.has_value()) {
            std::fprintf(stderr,
                         "helm: Result::value() on error result: %s\n",
                         status_.to_string().c_str());
            std::abort();
        }
    }

    std::optional<T> value_;
    Status status_;
};

/**
 * Internal invariant check.  Active in all build types: the simulator's
 * results are meaningless if its invariants do not hold, so we never
 * compile these out.
 */
#define HELM_ASSERT(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "helm: assertion failed at %s:%d: %s\n",   \
                         __FILE__, __LINE__, (msg));                        \
            std::abort();                                                   \
        }                                                                   \
    } while (0)

/** Early-return helper for Status-returning functions. */
#define HELM_RETURN_IF_ERROR(expr)                                          \
    do {                                                                    \
        ::helm::Status helm_status_ = (expr);                               \
        if (!helm_status_.is_ok())                                          \
            return helm_status_;                                            \
    } while (0)

#define HELM_CONCAT_IMPL(a, b) a##b
#define HELM_CONCAT(a, b) HELM_CONCAT_IMPL(a, b)
#define HELM_ASSIGN_OR_RETURN_IMPL(result, lhs, expr)                       \
    auto result = (expr);                                                   \
    if (!result.is_ok())                                                    \
        return result.status();                                             \
    lhs = std::move(*result)

/** `lhs = value of expr` for a Result @p expr, or early-return its
 *  Status.  Expands to several statements: brace it under an `if`. */
#define HELM_ASSIGN_OR_RETURN(lhs, expr)                                    \
    HELM_ASSIGN_OR_RETURN_IMPL(HELM_CONCAT(helm_result_, __LINE__), lhs,    \
                               expr)

} // namespace helm

#endif // HELM_COMMON_STATUS_H
