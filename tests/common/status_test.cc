/**
 * @file
 * Unit tests for common/status.h: Status and Result<T>.
 */
#include <gtest/gtest.h>

#include <string>

#include "common/status.h"

namespace helm {
namespace {

TEST(Status, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.is_ok());
    EXPECT_EQ(s.code(), StatusCode::kOk);
    EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, FactoryFunctions)
{
    EXPECT_EQ(Status::invalid_argument("x").code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(Status::capacity_exceeded("x").code(),
              StatusCode::kCapacityExceeded);
    EXPECT_EQ(Status::failed_precondition("x").code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(Status::not_found("x").code(), StatusCode::kNotFound);
    EXPECT_EQ(Status::internal("x").code(), StatusCode::kInternal);
}

TEST(Status, ToStringIncludesCodeAndMessage)
{
    const Status s = Status::invalid_argument("batch must be positive");
    EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: batch must be positive");
    EXPECT_FALSE(s.is_ok());
}

TEST(Status, CodeNames)
{
    EXPECT_STREQ(status_code_name(StatusCode::kOk), "OK");
    EXPECT_STREQ(status_code_name(StatusCode::kCapacityExceeded),
                 "CAPACITY_EXCEEDED");
}

TEST(Result, ValueCase)
{
    Result<int> r(42);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(*r, 42);
    EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, ErrorCase)
{
    Result<int> r(Status::not_found("missing"));
    EXPECT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, ValueOrPassesThroughValue)
{
    Result<std::string> r(std::string("hello"));
    EXPECT_EQ(r.value_or("fallback"), "hello");
}

TEST(Result, ArrowOperator)
{
    Result<std::string> r(std::string("hello"));
    EXPECT_EQ(r->size(), 5u);
}

TEST(Result, MoveOutValue)
{
    Result<std::string> r(std::string("payload"));
    std::string moved = std::move(r).value();
    EXPECT_EQ(moved, "payload");
}

TEST(Result, OkStatusConstructionBecomesInternalError)
{
    // Building a Result from an OK status is a caller bug; it must still
    // yield a well-defined error result.
    Result<int> r{Status::ok()};
    EXPECT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Status
helper_returning_error()
{
    HELM_RETURN_IF_ERROR(Status::invalid_argument("inner"));
    return Status::ok();
}

Status
helper_returning_ok()
{
    HELM_RETURN_IF_ERROR(Status::ok());
    return Status::internal("reached past the macro");
}

TEST(Status, ReturnIfErrorMacro)
{
    EXPECT_EQ(helper_returning_error().code(),
              StatusCode::kInvalidArgument);
    // OK statuses must not early-return.
    EXPECT_EQ(helper_returning_ok().code(), StatusCode::kInternal);
}

} // namespace
} // namespace helm
