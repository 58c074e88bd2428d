#include "common/error.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/log.hpp"

namespace ebm {
namespace {

TEST(ErrorTest, ToStringCarriesCategoryAndMessage)
{
    const Error e{Errc::CacheCorrupt, "bad entry"};
    EXPECT_EQ(e.toString(), "[cache-corrupt] bad entry");
}

TEST(ErrorTest, EveryCategoryHasAName)
{
    for (int c = 0; c <= static_cast<int>(Errc::Internal); ++c) {
        EXPECT_STRNE(errcName(static_cast<Errc>(c)), "unknown");
    }
}

TEST(ErrorTest, JoinErrorsListsAllProblems)
{
    const std::string joined =
        joinErrors({{Errc::InvalidConfig, "first"},
                    {Errc::InvalidArgument, "second"}});
    EXPECT_NE(joined.find("first"), std::string::npos);
    EXPECT_NE(joined.find("second"), std::string::npos);
}

TEST(ResultTest, HoldsValue)
{
    const Result<int> r(42);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.valueOr(7), 42);
}

TEST(ResultTest, HoldsError)
{
    const Result<int> r(Error{Errc::CacheIo, "disk gone"});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::CacheIo);
    EXPECT_EQ(r.valueOr(7), 7);
}

TEST(ResultTest, ValueOnErrorThrowsFatal)
{
    const Result<int> r(Error{Errc::CacheIo, "disk gone"});
    EXPECT_EBM_FATAL((void)r.value(), "disk gone");
}

TEST(StatusTest, DefaultIsSuccess)
{
    EXPECT_TRUE(Status().ok());
    EXPECT_FALSE(Status(Error{Errc::CacheIo, "x"}).ok());
}

TEST(LogTest, FatalThrowsFatalErrorWithCategory)
{
    try {
        fatal(Error{Errc::InvalidArgument, "bad input"});
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_EQ(e.code(), Errc::InvalidArgument);
        EXPECT_NE(std::string(e.what()).find("bad input"),
                  std::string::npos);
    }
}

TEST(LogTest, PanicThrowsInternalErrorByDefault)
{
    ASSERT_FALSE(RuntimeConfig::get().abortOnPanic);
    EXPECT_THROW(panic("invariant broken"), InternalError);
}

TEST(LogTest, RunGuardedConvertsFatalToExitCode)
{
    const int rc = runGuarded("test", []() -> int {
        fatal("cannot continue");
    });
    EXPECT_EQ(rc, 1);
    EXPECT_EQ(runGuarded("test", [] { return 0; }), 0);
}

// The one remaining true death test: the opt-in hard abort for
// debugger use (EBM_ABORT_ON_PANIC).
TEST(LogDeath, OptInPanicAbortStillDumpsCore)
{
    EXPECT_DEATH(
        {
            RuntimeConfig::Override aborts(
                [](RuntimeConfig &c) { c.abortOnPanic = true; });
            panic("core dump wanted");
        },
        "core dump wanted");
}

} // namespace
} // namespace ebm
