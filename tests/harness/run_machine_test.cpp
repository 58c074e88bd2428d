/**
 * @file
 * The per-run machine contract: `Runner::run` builds a fresh Gpu for
 * each run, so the only state that rides from one run to the next is
 * the warm checkpoint the WarmStateCache holds. A repeated shape is
 * served by the cache, an evicted one is recomputed, and a run that
 * throws leaves nothing behind: its retry equals a clean run.
 *
 * The suite keeps the name it had when runs leased their machine from
 * a reusing pool; these three cases are the parts of that contract
 * that outlive the pool.
 */
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/fault_injector.hpp"
#include "harness/runner.hpp"
#include "harness/warm_state.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

using Point = FaultInjector::Point;

/** Every test starts from an empty cache at its default budget. */
class GpuPoolTest : public ::testing::Test
{
  protected:
    /** The cache on, whatever EBM_SNAPSHOT the suite runs under. */
    RuntimeConfig::Override snapshotsOn_{
        [](RuntimeConfig &c) { c.snapshot = true; }};

    void
    SetUp() override
    {
        WarmStateCache::instance().clear();
    }

    void
    TearDown() override
    {
        WarmStateCache::instance().setBudgetBytes(kSnapshotBudgetBytes);
        WarmStateCache::instance().clear();
    }
};

/**
 * Two runs of one shape on one thread each build their own machine;
 * the second takes its checkpoint from the WarmStateCache, which
 * counts one miss and then one hit.
 */
TEST_F(GpuPoolTest, RetainedSnapshotRidesAcrossReleaseAndAcquire)
{
    const Runner runner(test::tinyConfig(2), test::tinyOptions());
    const std::vector<AppProfile> apps = {test::streamingApp(),
                                          test::cacheApp()};
    const WarmStateCache::Stats before = WarmStateCache::instance().stats();

    runner.runStatic(apps, {2, 4});
    runner.runStatic(apps, {4, 2});

    const WarmStateCache::Stats after = WarmStateCache::instance().stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 1u)
        << "the second run is served by the WarmStateCache";
}

/**
 * With the WarmStateCache budget shrunk so every insert evicts the
 * older checkpoints, re-running an evicted shape recomputes its
 * prefix: no checkpoint outlives its eviction on a kept machine.
 */
TEST_F(GpuPoolTest, RetainedBytesOverBudgetEvictEvenWhenIdleCountIsLow)
{
    const Runner runner(test::tinyConfig(2), test::tinyOptions());
    const std::vector<AppProfile> heavy_apps = {
        test::cacheApp("HEAVY", 2), test::streamingApp()};
    const std::vector<AppProfile> light_apps = {
        test::cacheApp("LIGHT", 3), test::streamingApp()};
    WarmStateCache &cache = WarmStateCache::instance();
    cache.setBudgetBytes(1);
    const WarmStateCache::Stats before = cache.stats();

    runner.runStatic(heavy_apps, {2, 4});
    runner.runStatic(light_apps, {2, 4}); // Evicts the heavy prefix.
    runner.runStatic(heavy_apps, {2, 4});

    const WarmStateCache::Stats after = cache.stats();
    EXPECT_EQ(after.evictions - before.evictions, 2u);
    EXPECT_EQ(after.misses - before.misses, 3u)
        << "the evicted heavy prefix is recomputed";
    EXPECT_EQ(after.hits - before.hits, 0u)
        << "nothing serves the evicted checkpoint";
}

/**
 * An injected RunFail unwinds the run and its machine with it; the
 * retry (the injector is exhausted) is field-for-field identical to
 * the same run on a runner that never saw a fault.
 */
TEST_F(GpuPoolTest, InjectedRunFailPoisonsInstanceAndRetryMatchesFresh)
{
    const std::vector<AppProfile> apps = {test::streamingApp(),
                                          test::cacheApp()};
    const TlpCombo combo = {4, 4};

    RunOptions opts = test::tinyOptions();
    FaultInjector fi(7);
    fi.armAfter(Point::RunFail, 0, 1);
    opts.faultInjector = &fi;
    Runner runner(test::tinyConfig(2), opts);

    EXPECT_EBM_FATAL(runner.runStatic(apps, combo),
                     "injected run failure");
    const RunResult retry = runner.runStatic(apps, combo);

    WarmStateCache::instance().clear();
    const Runner fresh_runner(test::tinyConfig(2), test::tinyOptions());
    const RunResult fresh = fresh_runner.runStatic(apps, combo);

    ASSERT_EQ(retry.apps.size(), fresh.apps.size());
    for (std::size_t i = 0; i < retry.apps.size(); ++i) {
        EXPECT_EQ(std::memcmp(&retry.apps[i].ipc, &fresh.apps[i].ipc,
                              sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&retry.apps[i].bw, &fresh.apps[i].bw,
                              sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&retry.apps[i].l1Mr, &fresh.apps[i].l1Mr,
                              sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&retry.apps[i].l2Mr, &fresh.apps[i].l2Mr,
                              sizeof(double)), 0);
    }
    EXPECT_EQ(std::memcmp(&retry.totalBw, &fresh.totalBw,
                          sizeof(double)), 0);
    EXPECT_EQ(retry.measuredCycles, fresh.measuredCycles);
    EXPECT_EQ(retry.finalTlp, fresh.finalTlp);
    EXPECT_EQ(retry.samplesTaken, fresh.samplesTaken);
}

} // namespace
} // namespace ebm
