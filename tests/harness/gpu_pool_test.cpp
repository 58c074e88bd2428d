/**
 * @file
 * The pool-is-an-accelerator contract: a Gpu leased from the pool —
 * i.e. a reused instance that went through reset(true) +
 * restoreKnobDefaults() — must be indistinguishable, digest for
 * digest, from a freshly constructed one, across the whole TLP ladder
 * and both fast-forward modes. Plus the poisoning semantics: any run
 * that throws while holding a lease (including an injected RunFail)
 * discards the instance instead of returning it. The pool holds
 * machines only; warm checkpoints come from the WarmStateCache.
 */
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/fault_injector.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/gpu_pool.hpp"
#include "harness/runner.hpp"
#include "harness/warm_state.hpp"
#include "sim/golden_digest.hpp"
#include "sim/gpu.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

using Point = FaultInjector::Point;

/** Save/restore the process-wide pool switch around every test. */
class GpuPoolTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        enabledBefore_ = GpuPool::enabled();
        warmBefore_ = WarmStateCache::enabled();
        GpuPool::setEnabled(true);
        GpuPool::threadLocal().clear();
        WarmStateCache::setEnabled(true);
        WarmStateCache::instance().clear();
    }

    void
    TearDown() override
    {
        GpuPool::threadLocal().clear();
        GpuPool::setEnabled(enabledBefore_);
        WarmStateCache::instance().setBudgetBytes(kSnapshotBudgetBytes);
        WarmStateCache::instance().clear();
        WarmStateCache::setEnabled(warmBefore_);
    }

    bool enabledBefore_ = true;
    bool warmBefore_ = true;
};

/** A measurement-shaped scenario: knobs, windows, a digest. */
std::uint64_t
runScenario(Gpu &gpu, std::uint32_t tlp, bool fast_forward)
{
    gpu.setFastForward(fast_forward);
    gpu.setAppTlp(0, tlp);
    gpu.setAppTlp(1, 6);
    gpu.run(6000);
    gpu.checkpoint();
    gpu.run(3000);
    return goldenDigest(gpu);
}

/** Leave an instance thoroughly dirty: knobs, partitions, history. */
void
dirty(Gpu &gpu)
{
    gpu.setAppTlp(0, 3);
    gpu.setAppTlp(1, 1);
    gpu.setAppL1Bypass(0, true);
    gpu.setAppL2Bypass(1, true);
    gpu.setAppL2WayPartition(0, 0, 4);
    gpu.setAppL2WayPartition(1, 4, 4);
    gpu.setFastForward(false);
    gpu.run(5000);
}

/**
 * The core reuse guarantee, swept across the full standard TLP ladder
 * and both fast-forward modes: a pooled instance that just finished a
 * maximally dirty run produces the exact digest of a never-used
 * machine.
 */
TEST_F(GpuPoolTest, PooledReuseMatchesFreshAcrossLadderAndFfModes)
{
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps = {test::streamingApp(),
                                          test::cacheApp()};

    for (const std::uint32_t tlp : GpuConfig::tlpLevels()) {
        for (const bool ff : {true, false}) {
            // Reference: a machine that has never run anything.
            std::uint64_t fresh = 0;
            {
                Gpu gpu(cfg, apps);
                fresh = runScenario(gpu, tlp, ff);
            }

            GpuPool pool;
            {
                GpuPool::Lease lease = pool.acquire(cfg, apps, {});
                dirty(lease.gpu());
            }
            ASSERT_EQ(pool.idleCount(), 1u);
            {
                GpuPool::Lease lease = pool.acquire(cfg, apps, {});
                EXPECT_EQ(pool.stats().hits, 1u)
                    << "second acquire of the same key must reuse";
                EXPECT_TRUE(lease.gpu().fastForwardEnabled())
                    << "leases hand out the construction default";
                const std::uint64_t pooled =
                    runScenario(lease.gpu(), tlp, ff);
                EXPECT_EQ(pooled, fresh)
                    << "tlp=" << tlp << " ff=" << ff;
            }
        }
    }
}

/** Keys compare by full equality: a different app list, a different
 * core share, or a different config never reuses an instance. */
TEST_F(GpuPoolTest, DistinctKeysNeverShareInstances)
{
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps_a = {test::streamingApp(),
                                            test::cacheApp()};
    const std::vector<AppProfile> apps_b = {test::streamingApp(),
                                            test::computeApp()};

    GpuPool pool;
    { GpuPool::Lease l = pool.acquire(cfg, apps_a, {}); }
    { GpuPool::Lease l = pool.acquire(cfg, apps_b, {}); }
    EXPECT_EQ(pool.stats().hits, 0u);
    EXPECT_EQ(pool.stats().misses, 2u);

    // An explicit core share that differs from the default split is a
    // different machine, even for the same apps.
    { GpuPool::Lease l = pool.acquire(cfg, apps_a, {3, 1}); }
    EXPECT_EQ(pool.stats().hits, 0u);
    EXPECT_EQ(pool.stats().misses, 3u);

    // A config that differs in any field is a different machine.
    GpuConfig other = cfg;
    other.l2HitLatency += 1;
    { GpuPool::Lease l = pool.acquire(other, apps_a, {}); }
    EXPECT_EQ(pool.stats().hits, 0u);
    EXPECT_EQ(pool.stats().misses, 4u);

    // And the originals are all still there to be reused.
    { GpuPool::Lease l = pool.acquire(cfg, apps_a, {}); }
    EXPECT_EQ(pool.stats().hits, 1u);
}

TEST_F(GpuPoolTest, PoisonedLeaseIsDiscardedNotReused)
{
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps = {test::streamingApp(),
                                          test::cacheApp()};

    GpuPool pool;
    {
        GpuPool::Lease lease = pool.acquire(cfg, apps, {});
        lease.poison();
    }
    EXPECT_EQ(pool.idleCount(), 0u);
    EXPECT_EQ(pool.stats().discards, 1u);
}

TEST_F(GpuPoolTest, ExceptionUnwindingDiscardsTheLease)
{
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps = {test::streamingApp(),
                                          test::cacheApp()};

    GpuPool pool;
    try {
        GpuPool::Lease lease = pool.acquire(cfg, apps, {});
        lease.gpu().run(100); // Half a run, then the "crash".
        throw std::runtime_error("simulated mid-run crash");
    } catch (const std::runtime_error &) {
    }
    EXPECT_EQ(pool.idleCount(), 0u);
    EXPECT_EQ(pool.stats().discards, 1u);
}

TEST_F(GpuPoolTest, IdleInstancesAreCappedOldestEvictedFirst)
{
    const GpuConfig cfg = test::tinyConfig(2);
    std::vector<std::vector<AppProfile>> keys;
    for (int i = 0; i < 5; ++i) {
        keys.push_back(
            {test::cacheApp("K" + std::to_string(i), 2 + i),
             test::streamingApp()});
    }

    GpuPool pool;
    {
        std::vector<GpuPool::Lease> held;
        for (const auto &apps : keys)
            held.push_back(pool.acquire(cfg, apps, {}));
    } // All five release here; the cap is four.
    EXPECT_EQ(pool.idleCount(), 4u);
    EXPECT_EQ(pool.stats().evictions, 1u);

    // The first-released key was the evicted one.
    { GpuPool::Lease l = pool.acquire(cfg, keys[0], {}); }
    EXPECT_EQ(pool.stats().misses, 6u);
    { GpuPool::Lease l = pool.acquire(cfg, keys[4], {}); }
    EXPECT_EQ(pool.stats().hits, 1u);
}

/**
 * The pool carries machines only: a repeated fork of one shape on one
 * thread reuses the pooled machine and takes its checkpoint from the
 * WarmStateCache, which counts it as a hit.
 */
TEST_F(GpuPoolTest, RetainedSnapshotRidesAcrossReleaseAndAcquire)
{
    const Runner runner(test::tinyConfig(2), test::tinyOptions());
    const std::vector<AppProfile> apps = {test::streamingApp(),
                                          test::cacheApp()};
    const WarmStateCache::Stats before = WarmStateCache::instance().stats();
    const GpuPool::Stats pool_before = GpuPool::threadLocal().stats();

    runner.runStatic(apps, {2, 4});
    runner.runStatic(apps, {4, 2});

    const WarmStateCache::Stats after = WarmStateCache::instance().stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 1u)
        << "the second fork is served by the WarmStateCache";
    EXPECT_EQ(GpuPool::threadLocal().stats().hits - pool_before.hits, 1u)
        << "the second run reuses the pooled machine";
}

/**
 * With the WarmStateCache budget shrunk so every insert evicts the
 * older checkpoints, re-running an evicted shape recomputes its
 * prefix even though the pool still holds that shape's machine: no
 * checkpoint outlives its eviction by riding with a pooled machine.
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
    const GpuPool::Stats pool_before = GpuPool::threadLocal().stats();

    runner.runStatic(heavy_apps, {2, 4});
    runner.runStatic(light_apps, {2, 4}); // Evicts the heavy prefix.
    runner.runStatic(heavy_apps, {2, 4});

    const WarmStateCache::Stats after = cache.stats();
    EXPECT_EQ(GpuPool::threadLocal().idleCount(), 2u);
    EXPECT_EQ(GpuPool::threadLocal().stats().hits - pool_before.hits, 1u)
        << "the heavy machine itself is reused from the pool";
    EXPECT_EQ(after.evictions - before.evictions, 2u);
    EXPECT_EQ(after.misses - before.misses, 3u)
        << "the evicted heavy prefix is recomputed";
    EXPECT_EQ(after.hits - before.hits, 0u)
        << "no pool-held copy serves the evicted checkpoint";
}

TEST_F(GpuPoolTest, DisabledPoolConstructsAndDiscardsEveryLease)
{
    const GpuConfig cfg = test::tinyConfig(2);
    const std::vector<AppProfile> apps = {test::streamingApp(),
                                          test::cacheApp()};

    GpuPool::setEnabled(false);
    GpuPool pool;
    std::uint64_t off = 0;
    {
        GpuPool::Lease lease = pool.acquire(cfg, apps, {});
        off = runScenario(lease.gpu(), 4, true);
    }
    EXPECT_EQ(pool.idleCount(), 0u)
        << "disabled leases never enter the idle list";

    GpuPool::setEnabled(true);
    std::uint64_t on = 0;
    {
        GpuPool::Lease lease = pool.acquire(cfg, apps, {});
        on = runScenario(lease.gpu(), 4, true);
    }
    EXPECT_EQ(off, on) << "the switch must not change results";
}

/**
 * The ISSUE's fault scenario: an injected RunFail fires while the
 * machine is leased, the unwinding poisons the instance, and the pool
 * rebuilds on the retry — whose result is field-for-field identical
 * to a run with pooling disabled (fresh construction).
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

    GpuPool &pool = GpuPool::threadLocal();
    const std::uint64_t discards_before = pool.stats().discards;

    EXPECT_EBM_FATAL(runner.runStatic(apps, combo),
                     "injected run failure");
    EXPECT_EQ(pool.idleCount(), 0u)
        << "the instance the failed run held must not be pooled";
    EXPECT_EQ(pool.stats().discards, discards_before + 1);

    // Retry (the injector is exhausted): the pool constructs anew.
    const RunResult retry = runner.runStatic(apps, combo);

    // Reference: the same run with pooling off entirely.
    GpuPool::setEnabled(false);
    Runner fresh_runner(test::tinyConfig(2), test::tinyOptions());
    const RunResult fresh = fresh_runner.runStatic(apps, combo);
    GpuPool::setEnabled(true);

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

/**
 * End to end through the sweep engine: a cold sweep with pooling on
 * must produce the same table and the byte-identical compacted cache
 * file as one with pooling off.
 */
TEST_F(GpuPoolTest, ColdSweepIsByteIdenticalPoolingOnVsOff)
{
    const std::string stem = ::testing::TempDir() + "ebm_pool_sweep";
    const std::string on_path = stem + "_on.txt";
    const std::string off_path = stem + "_off.txt";
    for (const std::string &p : {on_path, off_path})
        std::remove(p.c_str());

    const std::vector<std::uint32_t> ladder = {1, 2, 4, 8};
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");

    auto sweepTo = [&](const std::string &path) {
        DiskCache cache(path);
        Exhaustive ex(runner, cache);
        ex.setJobs(2);
        const ComboTable t = ex.sweep(wl, ladder);
        EXPECT_TRUE(cache.compact());
        return t;
    };

    const ComboTable on = sweepTo(on_path);
    GpuPool::setEnabled(false);
    const ComboTable off = sweepTo(off_path);
    GpuPool::setEnabled(true);

    ASSERT_EQ(on.combos.size(), off.combos.size());
    for (std::size_t row = 0; row < on.combos.size(); ++row) {
        EXPECT_EQ(on.combos[row], off.combos[row]);
        EXPECT_EQ(std::memcmp(&on.results[row].totalBw,
                              &off.results[row].totalBw,
                              sizeof(double)), 0)
            << "row " << row;
        EXPECT_EQ(on.results[row].measuredCycles,
                  off.results[row].measuredCycles)
            << "row " << row;
    }

    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string on_bytes = slurp(on_path);
    ASSERT_FALSE(on_bytes.empty());
    EXPECT_EQ(on_bytes, slurp(off_path));

    for (const std::string &p : {on_path, off_path})
        std::remove(p.c_str());
}

} // namespace
} // namespace ebm
