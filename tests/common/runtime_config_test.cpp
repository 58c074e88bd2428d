/**
 * @file
 * RuntimeConfig: parsing every EBM_* variable from a lookup (no
 * process environment involved), one warning per bad value, and the
 * Override scope that replaces in-process setenv.
 */
#include "common/runtime_config.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace ebm {
namespace {

using Vars = std::map<std::string, std::string>;

RuntimeConfig
parseVars(const Vars &vars)
{
    return RuntimeConfig::parse([&vars](const char *name) -> const char * {
        const auto it = vars.find(name);
        return it == vars.end() ? nullptr : it->second.c_str();
    });
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

unsigned
hardwareJobs()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

TEST(RuntimeConfig, UnsetVariablesKeepTheDefaults)
{
    const RuntimeConfig c = parseVars({});
    EXPECT_EQ(c.jobs, hardwareJobs());
    EXPECT_EQ(c.cacheDir, "");
    EXPECT_FALSE(c.cacheCompact);
    EXPECT_FALSE(c.cacheReadOnly);
    EXPECT_EQ(c.claimStale, std::chrono::milliseconds(10000));
    EXPECT_TRUE(c.snapshot);
    EXPECT_FALSE(c.abortOnPanic);
}

TEST(RuntimeConfig, ParsesEveryVariable)
{
    const RuntimeConfig c = parseVars({
        {"EBM_JOBS", "3"},
        {"EBM_CACHE_DIR", "/var/tmp/ebm"},
        {"EBM_CACHE_COMPACT", "1"},
        {"EBM_CACHE_READONLY", "yes"},
        {"EBM_CLAIM_STALE_MS", "250"},
        {"EBM_SNAPSHOT", "0"},
        {"EBM_ABORT_ON_PANIC", "1"},
        // Unknown names are not read, and not warned about.
        {"EBM_SWEEP_SHARD", "1"},
    });
    EXPECT_EQ(c.jobs, 3u);
    EXPECT_EQ(c.cacheDir, "/var/tmp/ebm");
    EXPECT_TRUE(c.cacheCompact);
    EXPECT_TRUE(c.cacheReadOnly);
    EXPECT_EQ(c.claimStale, std::chrono::milliseconds(250));
    EXPECT_FALSE(c.snapshot);
    EXPECT_TRUE(c.abortOnPanic);
}

TEST(RuntimeConfig, FlagsReadFalseSpellings)
{
    for (const char *off : {"0", "false", "OFF", "No", ""}) {
        const RuntimeConfig c = parseVars({{"EBM_CACHE_COMPACT", off},
                                           {"EBM_ABORT_ON_PANIC", off}});
        EXPECT_FALSE(c.cacheCompact) << off;
        EXPECT_FALSE(c.abortOnPanic) << off;
    }
    for (const char *on : {"1", "true", "on", "anything"})
        EXPECT_TRUE(parseVars({{"EBM_CACHE_READONLY", on}}).cacheReadOnly)
            << on;
}

TEST(RuntimeConfig, RejectsGarbageAndClamps)
{
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(parseVars({{"EBM_CLAIM_STALE_MS", "12x"}}).claimStale,
              std::chrono::milliseconds(10000))
        << "trailing garbage keeps the default (with a warning)";
    EXPECT_EQ(parseVars({{"EBM_CLAIM_STALE_MS", "99999999"}}).claimStale,
              std::chrono::milliseconds(3600000))
        << "clamped";
    EXPECT_EQ(parseVars({{"EBM_CLAIM_STALE_MS", "0"}}).claimStale,
              std::chrono::milliseconds(1));
    EXPECT_EQ(parseVars({{"EBM_JOBS", "-4"}}).jobs, hardwareJobs());
    EXPECT_EQ(parseVars({{"EBM_JOBS", "0"}}).jobs, hardwareJobs())
        << "0 means auto";
    EXPECT_EQ(parseVars({{"EBM_JOBS", "999999"}}).jobs, 1u << 16);
    EXPECT_TRUE(parseVars({{"EBM_SNAPSHOT", "2"}}).snapshot);
    EXPECT_TRUE(parseVars({{"EBM_SNAPSHOT", "off"}}).snapshot)
        << "a non-number keeps the default: snapshots on";
    ::testing::internal::GetCapturedStderr();
}

TEST(RuntimeConfig, InvalidValueWarnsOncePerBadValue)
{
    // Parsing happens once, so each bad value warns exactly once,
    // naming the variable and the value; good values stay quiet.
    ::testing::internal::CaptureStderr();
    const RuntimeConfig c = parseVars({{"EBM_JOBS", "8x"},
                                       {"EBM_CLAIM_STALE_MS", "10s"},
                                       {"EBM_SNAPSHOT", "1"}});
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(countLines(err, "warn:"), 2u) << err;
    EXPECT_EQ(countLines(err, "EBM_JOBS: ignoring invalid value '8x'"),
              1u)
        << err;
    EXPECT_EQ(countLines(err, "EBM_CLAIM_STALE_MS: ignoring invalid "
                              "value '10s'"),
              1u)
        << err;
    EXPECT_EQ(c.jobs, hardwareJobs());
    EXPECT_EQ(c.claimStale, std::chrono::milliseconds(10000));

    // The process's snapshot is parsed once: reading it again and
    // again never re-parses, so it never warns again.
    (void)RuntimeConfig::get();
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 50; ++i)
        (void)RuntimeConfig::get().claimStale;
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(RuntimeConfig, OverrideScopesNestAndRestore)
{
    const RuntimeConfig before = RuntimeConfig::get();
    {
        RuntimeConfig::Override outer([](RuntimeConfig &c) {
            c.claimStale = std::chrono::milliseconds(5);
            c.jobs = 2;
        });
        EXPECT_EQ(RuntimeConfig::get().claimStale,
                  std::chrono::milliseconds(5));
        {
            RuntimeConfig::Override inner(
                [](RuntimeConfig &c) { c.jobs = 7; });
            EXPECT_EQ(RuntimeConfig::get().jobs, 7u);
            EXPECT_EQ(RuntimeConfig::get().claimStale,
                      std::chrono::milliseconds(5))
                << "an inner scope edits the outer snapshot";
        }
        EXPECT_EQ(RuntimeConfig::get().jobs, 2u);
    }
    EXPECT_EQ(RuntimeConfig::get().jobs, before.jobs);
    EXPECT_EQ(RuntimeConfig::get().claimStale, before.claimStale);
}

TEST(RuntimeConfig, DescribeListsEveryVariable)
{
    RuntimeConfig c = parseVars({});
    c.jobs = 4;
    c.cacheDir = "/d";
    const std::string text = c.describe();
    for (const char *token :
         {"EBM_JOBS=4", "EBM_CACHE_DIR=/d", "EBM_CACHE_COMPACT=0",
          "EBM_CACHE_READONLY=0", "EBM_CLAIM_STALE_MS=10000",
          "EBM_SNAPSHOT=1", "EBM_ABORT_ON_PANIC=0"})
        EXPECT_NE(text.find(token), std::string::npos) << token;
    EXPECT_EQ(std::count(text.begin(), text.end(), '='), 7);
}

} // namespace
} // namespace ebm
