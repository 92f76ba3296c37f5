#include "src/common/status.h"

#include <gtest/gtest.h>

namespace puddles {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("puddle 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "puddle 42");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: puddle 42");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(PermissionDeniedError("").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(OutOfMemoryError("").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(FailedPreconditionError("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DataLossError("").code(), StatusCode::kDataLoss);
  EXPECT_EQ(IoError("").code(), StatusCode::kIoError);
  EXPECT_EQ(AbortedError("").code(), StatusCode::kAborted);
  EXPECT_EQ(OutOfRangeError("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnimplementedError("").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, ErrnoErrorIncludesStrerror) {
  Status s = ErrnoError("open /tmp/x", ENOENT);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("open /tmp/x"), std::string::npos);
  EXPECT_NE(s.message().find("No such file"), std::string::npos);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  // Status before value: once *r has been passed to gtest, GCC 12 loses the
  // variant's index and warns (-Wmaybe-uninitialized) on ~Result's Status
  // branch.
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgumentError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  ASSIGN_OR_RETURN(int half, Half(x));
  ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);

  Result<int> bad = Quarter(6);  // 6/2=3 is odd.
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Status FailIfNegative(int x) {
  if (x < 0) {
    return OutOfRangeError("negative");
  }
  return OkStatus();
}

Status CheckAll(int a, int b) {
  RETURN_IF_ERROR(FailIfNegative(a));
  RETURN_IF_ERROR(FailIfNegative(b));
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(CheckAll(1, 2).ok());
  EXPECT_EQ(CheckAll(1, -2).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(CheckAll(-1, 2).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace puddles
