/**
 * @file
 * Warm-state fork contract: forking every combination of a sweep from
 * one captured warmup prefix is an accelerator, never a semantic.
 * Fork-on and fork-off sweeps must produce bit-identical tables and
 * byte-identical compacted stores at any worker count; the cache must
 * dedupe the prefix (one miss, then hits), extend deeper targets from
 * the nearest shallower capture, single-flight concurrent requests,
 * and bound its footprint with LRU byte eviction.
 */
#include "harness/warm_state.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/gpu_pool.hpp"
#include "sim/golden_digest.hpp"
#include "workload/workload_suite.hpp"

namespace ebm {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Every test starts from an empty cache and leaves the process-wide
 * switches the way it found them; leaked warm checkpoints (or a
 * disabled cache) must not bleed into sibling tests.
 */
class WarmStateTest : public ::testing::Test
{
  protected:
    /** Every test starts with the cache on, whatever EBM_SNAPSHOT
     * the suite runs under. */
    RuntimeConfig::Override snapshotsOn_{
        [](RuntimeConfig &c) { c.snapshot = true; }};

    void
    SetUp() override
    {
        WarmStateCache::instance().clear();
        GpuPool::threadLocal().clear();
        start_ = WarmStateCache::instance().stats();
    }

    void
    TearDown() override
    {
        WarmStateCache::instance().clear();
        GpuPool::threadLocal().clear();
    }

    /** Counter movement since SetUp. */
    WarmStateCache::Stats
    delta() const
    {
        const auto now = WarmStateCache::instance().stats();
        WarmStateCache::Stats d;
        d.hits = now.hits - start_.hits;
        d.misses = now.misses - start_.misses;
        d.resumes = now.resumes - start_.resumes;
        d.evictions = now.evictions - start_.evictions;
        d.retainedBytes = now.retainedBytes;
        return d;
    }

    WarmStateCache::Stats start_;
};

/**
 * The acceptance test for the fork path: a full 64-combination sweep
 * with forking on must reproduce the fork-off sweep bit for bit —
 * table rows and compacted store bytes — at jobs=1 and jobs=4.
 */
TEST_F(WarmStateTest, ForkOnVsOffStoreBytesIdentical)
{
    const std::vector<std::uint32_t> ladder = {1, 2, 3, 4, 5, 6, 7, 8};
    const Workload wl = makePair("BLK", "TRD");
    const std::string stem = ::testing::TempDir() + "ebm_warm_bytes_";

    auto sweepBytes = [&](bool fork_on, std::uint32_t jobs,
                          const std::string &path) {
        std::remove(path.c_str());
        WarmStateCache::instance().clear();
        RuntimeConfig::Override forks(
            [fork_on](RuntimeConfig &c) { c.snapshot = fork_on; });
        Runner runner(test::tinyConfig(2), test::tinyOptions());
        DiskCache cache(path);
        Exhaustive ex(runner, cache);
        ex.setJobs(jobs);
        const ComboTable t = ex.sweep(wl, ladder);
        EXPECT_EQ(t.combos.size(), 64u);
        EXPECT_TRUE(cache.compact());
        std::string bytes = slurp(path);
        std::remove(path.c_str());
        return bytes;
    };

    const std::string off = sweepBytes(false, 1, stem + "off.txt");
    ASSERT_FALSE(off.empty());
    EXPECT_EQ(sweepBytes(true, 1, stem + "on1.txt"), off)
        << "forked sweep must be byte-identical to the cold one";
    EXPECT_EQ(sweepBytes(true, 4, stem + "on4.txt"), off)
        << "forking must stay byte-identical under parallel workers";
}

/** One shape's prefix is simulated once; every later combo forks. */
TEST_F(WarmStateTest, SweepWarmsPrefixOnceThenForks)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");
    const std::string path =
        ::testing::TempDir() + "ebm_warm_once.txt";
    std::remove(path.c_str());
    {
        DiskCache cache(path);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        ex.sweep(wl, {1, 2, 4, 8});
    }
    std::remove(path.c_str());

    const auto d = delta();
    EXPECT_EQ(d.misses, 1u)
        << "16 combos of one shape share one warm prefix";
    EXPECT_EQ(d.hits, 15u);
}

/** A deeper target resumes from the nearest shallower capture. */
TEST_F(WarmStateTest, DeeperTargetResumesFromShallowerCheckpoint)
{
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps{test::streamingApp(),
                                       test::cacheApp()};
    const std::uint64_t key = 0xfeedu;
    WarmStateCache &cache = WarmStateCache::instance();

    Gpu g1(cfg, apps);
    const auto shallow = cache.warmTo(key, g1, 1000, 500, 100);
    ASSERT_NE(shallow, nullptr);
    EXPECT_EQ(shallow->elapsed, 1000u);

    Gpu g2(cfg, apps);
    const auto deep = cache.warmTo(key, g2, 2000, 500, 100);
    ASSERT_NE(deep, nullptr);
    EXPECT_EQ(deep->elapsed, 2000u);
    EXPECT_EQ(delta().resumes, 1u)
        << "the 2000-cycle warm must seed from the 1000-cycle capture";

    // The resumed capture must be bit-identical to a cold one.
    cache.clear();
    Gpu g3(cfg, apps);
    const auto cold = cache.warmTo(key, g3, 2000, 500, 100);
    ASSERT_NE(cold, nullptr);
    Gpu a(cfg, apps), b(cfg, apps);
    a.restore(deep->gpu);
    b.restore(cold->gpu);
    EXPECT_EQ(goldenDigest(a), goldenDigest(b));
    a.run(3000);
    b.run(3000);
    EXPECT_EQ(goldenDigest(a), goldenDigest(b));
}

/** Concurrent requests for one checkpoint compute it exactly once. */
TEST_F(WarmStateTest, SingleFlightComputesOnce)
{
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps{test::streamingApp(),
                                       test::cacheApp()};
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            Gpu gpu(cfg, apps);
            const auto cp = WarmStateCache::instance().warmTo(
                0xabcdu, gpu, 3000, 500, 100);
            EXPECT_NE(cp, nullptr);
        });
    }
    for (std::thread &t : threads)
        t.join();
    const auto d = delta();
    EXPECT_EQ(d.misses, 1u) << "one thread computes, the rest wait";
    EXPECT_EQ(d.hits, kThreads - 1u);
}

/** The LRU byte budget evicts oldest-first; the newest survives. */
TEST_F(WarmStateTest, ByteBudgetEvictsOldestFirst)
{
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps{test::streamingApp(),
                                       test::cacheApp()};
    WarmStateCache &cache = WarmStateCache::instance();
    cache.setBudgetBytes(1); // Every insert overflows the budget.

    Gpu g1(cfg, apps);
    ASSERT_NE(cache.warmTo(0x1u, g1, 1000, 500, 100), nullptr);
    Gpu g2(cfg, apps);
    ASSERT_NE(cache.warmTo(0x2u, g2, 1000, 500, 100), nullptr);
    EXPECT_EQ(delta().evictions, 1u)
        << "the second insert displaces the first";

    // The first key was evicted: asking again recomputes (miss).
    Gpu g3(cfg, apps);
    ASSERT_NE(cache.warmTo(0x1u, g3, 1000, 500, 100), nullptr);
    EXPECT_EQ(delta().misses, 3u);
    EXPECT_EQ(delta().hits, 0u);

    cache.setBudgetBytes(256u * 1024 * 1024);
}

/** EBM_SNAPSHOT=0 turns the cache fully off. */
TEST_F(WarmStateTest, KillSwitchDisablesCaptureEntirely)
{
    RuntimeConfig::Override off(
        [](RuntimeConfig &c) { c.snapshot = false; });
    EXPECT_FALSE(RuntimeConfig::get().snapshot);
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps{test::streamingApp(),
                                       test::cacheApp()};
    Gpu gpu(cfg, apps);
    EXPECT_EQ(WarmStateCache::instance().warmTo(0x9u, gpu, 1000, 500,
                                                100),
              nullptr);
    const auto d = delta();
    EXPECT_EQ(d.hits, 0u);
    EXPECT_EQ(d.misses, 0u);
}

/**
 * The kill switch parses through RuntimeConfig's strict parser: exact
 * "0" disables, exact "1" enables, trailing garbage falls back to
 * enabled rather than being half-read.
 */
TEST_F(WarmStateTest, KillSwitchUsesStrictEnvParse)
{
    const auto parse = [](const char *value) {
        return RuntimeConfig::parse([value](const char *name) {
                   return std::string(name) == "EBM_SNAPSHOT" ? value
                                                              : nullptr;
               }).snapshot;
    };
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(parse("0"));
    EXPECT_TRUE(parse("1"));
    EXPECT_TRUE(parse("0x")) << "trailing garbage -> fallback";
    EXPECT_TRUE(parse(" 0")) << "leading space -> fallback";
    EXPECT_TRUE(parse("off")) << "words are not numbers here";
    ::testing::internal::GetCapturedStderr();
}

} // namespace
} // namespace ebm
