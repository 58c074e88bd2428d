#include "common/config.hpp"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace ebm {
namespace {

TEST(GpuConfig, DefaultsValidate)
{
    GpuConfig cfg;
    cfg.validate(); // Must not exit.
    SUCCEED();
}

TEST(GpuConfig, TinyConfigValidates)
{
    test::tinyConfig(2).validate();
    SUCCEED();
}

TEST(GpuConfig, TlpLevelsAscendingAndSixtyFourCombos)
{
    const auto &levels = GpuConfig::tlpLevels();
    EXPECT_EQ(levels.size(), 8u) << "8 levels -> 64 two-app combos";
    for (std::size_t i = 1; i < levels.size(); ++i)
        EXPECT_LT(levels[i - 1], levels[i]);
    EXPECT_EQ(levels.front(), 1u);
}

TEST(GpuConfig, MaxTlpMatchesWarpAndSchedulerCounts)
{
    GpuConfig cfg;
    EXPECT_EQ(cfg.maxTlp(),
              cfg.maxWarpsPerCore / cfg.schedulersPerCore);
    EXPECT_EQ(GpuConfig::tlpLevels().back(), cfg.maxTlp())
        << "the top TLP level is maxTLP";
}

TEST(GpuConfig, CoresPerAppEqualSplit)
{
    GpuConfig cfg;
    cfg.numCores = 16;
    cfg.numApps = 2;
    EXPECT_EQ(cfg.coresPerApp(), 8u);
    cfg.numApps = 4;
    EXPECT_EQ(cfg.coresPerApp(), 4u);
}

TEST(GpuConfig, PeakBandwidthScalesWithPartitions)
{
    GpuConfig cfg;
    const double base = cfg.peakBytesPerCoreCycle();
    cfg.numPartitions *= 2;
    EXPECT_DOUBLE_EQ(cfg.peakBytesPerCoreCycle(), 2.0 * base);
}

TEST(GpuConfig, PeakBandwidthPositive)
{
    EXPECT_GT(GpuConfig{}.peakBytesPerCoreCycle(), 0.0);
}

TEST(CacheGeometry, NumSets)
{
    CacheGeometry g{16 * 1024, 4, 128, 32, 8};
    EXPECT_EQ(g.numSets(), 32u);
}

TEST(GpuConfigDeath, UnevenCoreSplitIsFatal)
{
    GpuConfig cfg;
    cfg.numCores = 15;
    cfg.numApps = 2;
    EXPECT_EBM_FATAL(cfg.validate(), "divide evenly");
}

TEST(GpuConfigDeath, ZeroAppsIsFatal)
{
    GpuConfig cfg;
    cfg.numApps = 0;
    EXPECT_EBM_FATAL(cfg.validate(), "numApps");
}

TEST(GpuConfigDeath, MismatchedLineSizesAreFatal)
{
    GpuConfig cfg;
    cfg.l1.lineBytes = 64;
    EXPECT_EBM_FATAL(cfg.validate(), "line sizes");
}

TEST(GpuConfigDeath, InterleaveSmallerThanLineIsFatal)
{
    GpuConfig cfg;
    cfg.interleaveBytes = 64;
    EXPECT_EBM_FATAL(cfg.validate(), "interleave");
}

TEST(GpuConfigDeath, BankGroupMismatchIsFatal)
{
    GpuConfig cfg;
    cfg.banksPerChannel = 10;
    cfg.bankGroups = 4;
    EXPECT_EBM_FATAL(cfg.validate(), "bank groups");
}

TEST(GpuConfigCheck, ReportsAllProblemsAtOnce)
{
    GpuConfig cfg;
    cfg.numApps = 0;
    cfg.l1.lineBytes = 64;
    cfg.interleaveBytes = 64;
    const std::vector<Error> errors = cfg.check();
    EXPECT_GE(errors.size(), 3u);
    // validate() folds the whole list into one error message.
    EXPECT_EBM_FATAL(cfg.validate(), "numApps");
    EXPECT_EBM_FATAL(cfg.validate(), "line sizes");
    EXPECT_EBM_FATAL(cfg.validate(), "interleave");
}

TEST(GpuConfigCheck, ValidConfigHasNoProblems)
{
    EXPECT_TRUE(GpuConfig().check().empty());
}

TEST(ParseUint, AcceptsOnlyWholeBase10Numbers)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseUint("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUint("42", v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(parseUint("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ull);

    v = 99;
    EXPECT_FALSE(parseUint(nullptr, v));
    EXPECT_FALSE(parseUint("", v));
    EXPECT_FALSE(parseUint("8x", v)) << "trailing garbage";
    EXPECT_FALSE(parseUint("x8", v));
    EXPECT_FALSE(parseUint("-1", v)) << "signs are not digits";
    EXPECT_FALSE(parseUint("+1", v));
    EXPECT_FALSE(parseUint(" 7", v)) << "no leading whitespace";
    EXPECT_FALSE(parseUint("3.5", v));
    EXPECT_FALSE(parseUint("18446744073709551616", v)) << "overflow";
    EXPECT_EQ(v, 99u) << "out untouched on rejection";
}

TEST(EnvUint, RejectsGarbageAndClamps)
{
    ::setenv("EBM_TEST_KNOB", "12", 1);
    EXPECT_EQ(envUint("EBM_TEST_KNOB", 5, 1, 100), 12u);
    ::setenv("EBM_TEST_KNOB", "12x", 1);
    EXPECT_EQ(envUint("EBM_TEST_KNOB", 5, 1, 100), 5u)
        << "trailing garbage falls back (with a warning)";
    ::setenv("EBM_TEST_KNOB", "1000", 1);
    EXPECT_EQ(envUint("EBM_TEST_KNOB", 5, 1, 100), 100u) << "clamped";
    ::unsetenv("EBM_TEST_KNOB");
    EXPECT_EQ(envUint("EBM_TEST_KNOB", 5, 1, 100), 5u);
}

/** Count the lines of @p text that contain @p needle. */
std::size_t
countLines(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    std::size_t begin = 0;
    while (begin < text.size()) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        if (text.substr(begin, end - begin).find(needle) !=
            std::string::npos)
            ++n;
        begin = end + 1;
    }
    return n;
}

TEST(EnvUint, InvalidValueWarnsOncePerNameAndValue)
{
    // Knobs like EBM_CLAIM_STALE_MS are re-read on every lease RPC: a
    // typo must warn once, not once per read, and must still fall back
    // on every read.
    ::setenv("EBM_TEST_WARN_ONCE", "10s", 1);
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(envUint("EBM_TEST_WARN_ONCE", 5, 1, 100), 5u);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(countLines(err, "EBM_TEST_WARN_ONCE"), 1u) << err;
    EXPECT_NE(err.find("'10s'"), std::string::npos) << err;

    // Still read on every call: a fixed value takes effect at once...
    ::setenv("EBM_TEST_WARN_ONCE", "40", 1);
    EXPECT_EQ(envUint("EBM_TEST_WARN_ONCE", 5, 1, 100), 40u);

    // ...and a different bad value is a new mistake, warned once more.
    ::setenv("EBM_TEST_WARN_ONCE", "1e3", 1);
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(envUint("EBM_TEST_WARN_ONCE", 5, 1, 100), 5u);
    err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(countLines(err, "EBM_TEST_WARN_ONCE"), 1u) << err;
    EXPECT_NE(err.find("'1e3'"), std::string::npos) << err;
    ::unsetenv("EBM_TEST_WARN_ONCE");
}

} // namespace
} // namespace ebm
