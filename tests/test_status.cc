#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace hetesim {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, OkFactory) {
  EXPECT_TRUE(Status::OK().ok());
}

TEST(Status, FactoryCodesMatchPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Cancelled("x").IsCancelled());
}

TEST(Status, ErrorCarriesMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "Not found: missing thing");
}

TEST(Status, OkCodeWithMessageCollapsesToOk) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "");
}

TEST(Status, CopyPreservesState) {
  Status original = Status::IOError("disk");
  Status copy = original;
  EXPECT_EQ(copy, original);
  EXPECT_EQ(copy.message(), "disk");
  // Deep copy: mutating the copy via assignment leaves the original intact.
  copy = Status::OK();
  EXPECT_TRUE(copy.ok());
  EXPECT_FALSE(original.ok());
}

TEST(Status, MoveLeavesSourceReusable) {
  Status original = Status::Internal("boom");
  Status moved = std::move(original);
  EXPECT_TRUE(moved.IsInternal());
}

TEST(Status, SelfAssignmentIsSafe) {
  Status s = Status::NotFound("x");
  Status& alias = s;
  s = alias;
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "x");
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(Status, CodeNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument), "Invalid argument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal error");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded), "Deadline exceeded");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted), "Resource exhausted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCancelled), "Cancelled");
}

Status FailsWhen(bool fail) {
  if (fail) return Status::FailedPrecondition("asked to fail");
  return Status::OK();
}

Status UsesReturnNotOk(bool fail) {
  HETESIM_RETURN_NOT_OK(FailsWhen(fail));
  return Status::OK();
}

TEST(StatusMacros, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(false).ok());
  EXPECT_TRUE(UsesReturnNotOk(true).IsFailedPrecondition());
}

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value(), 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

TEST(Result, ArrowOperator) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(r->size(), 3u);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  HETESIM_ASSIGN_OR_RETURN(int half, HalveEven(x));
  HETESIM_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultMacros, AssignOrReturnChains) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_TRUE(QuarterEven(6).status().IsInvalidArgument());  // fails at 2nd halving
  EXPECT_TRUE(QuarterEven(3).status().IsInvalidArgument());  // fails at 1st halving
}

TEST(ResultDeath, ValueOnErrorAborts) {
  Result<int> r(Status::Internal("no value"));
  EXPECT_DEATH({ (void)r.value(); }, "Result::value");
}

TEST(ResultDeath, OkStatusAborts) {
  EXPECT_DEATH({ Result<int> r{Status::OK()}; (void)r; }, "OK Status");
}

}  // namespace
}  // namespace hetesim
