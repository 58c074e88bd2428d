#include "common/config.hpp"

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

TEST(GpuConfigCheck, RejectsMoreWarpsPerSchedulerThanMaskBits)
{
    GpuConfig cfg;
    cfg.schedulersPerCore = 2;
    cfg.maxWarpsPerCore = 128; // 64 per scheduler: the widest allowed
    EXPECT_TRUE(cfg.check().empty());

    cfg.maxWarpsPerCore = 130; // 65 per scheduler
    cfg.l1.lineBytes = 64;     // a second, unrelated problem
    EXPECT_EQ(cfg.check().size(), 2u)
        << "check() reports the width problem alongside the others";
    EXPECT_EBM_FATAL(cfg.validate(), "(65) must be in [1, 64]");
    EXPECT_EBM_FATAL(cfg.validate(), "line sizes");

    cfg.l1.lineBytes = cfg.l2Slice.lineBytes;
    cfg.maxWarpsPerCore = 0;
    EXPECT_EBM_FATAL(cfg.validate(), "(0) must be in [1, 64]");
}

TEST(GpuConfigCheck, RejectsMoreCoresThanMaskBits)
{
    GpuConfig cfg;
    cfg.numApps = 1;
    cfg.numCores = 64; // one bit per core: the widest allowed
    EXPECT_TRUE(cfg.check().empty());

    cfg.numCores = 65;
    cfg.l1.lineBytes = 64; // a second, unrelated problem
    EXPECT_EQ(cfg.check().size(), 2u)
        << "check() reports the width problem alongside the others";
    EXPECT_EBM_FATAL(cfg.validate(), "numCores (65) must be in [1, 64]");
    EXPECT_EBM_FATAL(cfg.validate(), "line sizes");

    cfg.l1.lineBytes = cfg.l2Slice.lineBytes;
    cfg.numCores = 0;
    EXPECT_EBM_FATAL(cfg.validate(), "numCores (0) must be in [1, 64]");
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

} // namespace
} // namespace ebm
