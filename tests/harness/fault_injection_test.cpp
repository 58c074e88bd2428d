/**
 * @file
 * End-to-end fault-injection tests: the acceptance scenarios for the
 * robustness work. Every injected failure — corrupted cache files,
 * NaN EB relays mid-search, transient and persistent run failures, an
 * application draining while PBS probes — must leave the harness on a
 * documented recovery path, with the process alive and exit code 0.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/fault_injector.hpp"
#include "common/log.hpp"
#include "core/eb_monitor.hpp"
#include "core/pbs_policy.hpp"
#include "core/pbs_search.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "sim/gpu.hpp"

namespace ebm {
namespace {

using Point = FaultInjector::Point;

class FaultInjectionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cache_path_ = ::testing::TempDir() + "ebm_fault_cache_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".txt";
        std::remove(cache_path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(cache_path_.c_str());
        std::remove((cache_path_ + ".quarantined").c_str());
        std::remove((cache_path_ + ".tmp").c_str());
    }

    std::string cache_path_;
};

/**
 * Drive a policy over live sampling windows through a monitor that may
 * have faults armed — the online-controller loop with an unreliable
 * EB relay.
 */
void
driveInjected(Gpu &gpu, TlpPolicy &policy, FaultInjector *fi,
              std::uint32_t windows, Cycle window_len = 400)
{
    EbMonitor mon(gpu, EbMonitor::Mode::DesignatedUnits,
                  /*relay_latency=*/100, fi);
    policy.onRunStart(gpu);
    gpu.checkpoint();
    for (std::uint32_t w = 0; w < windows; ++w) {
        gpu.run(window_len);
        const EbSample sample = mon.closeWindow(gpu.now());
        policy.onWindow(gpu, gpu.now(), sample);
        gpu.checkpoint();
    }
}

/**
 * Acceptance scenario 1: a cache file torn mid-frame (killed writer)
 * is truncated back to the last valid frame on load — not quarantined
 * wholesale — the lost combinations are recomputed, and the final
 * figures are identical to the undamaged sweep.
 */
TEST_F(FaultInjectionTest, CorruptCacheQuarantinesRecomputesIdentical)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");

    ComboTable original;
    {
        DiskCache cache(cache_path_);
        Exhaustive ex(runner, cache);
        original = ex.sweep(wl, {1, 4});
        ASSERT_EQ(ex.status().simulated, 4u);
    }

    // Tear the file mid-frame, as a crash during persist would.
    std::string content;
    {
        std::ifstream in(cache_path_, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        content = ss.str();
    }
    {
        std::ofstream out(cache_path_,
                          std::ios::trunc | std::ios::binary);
        out << content.substr(0, content.size() * 2 / 3);
    }

    const int rc = runGuarded("resweep", [&]() -> int {
        DiskCache cache(cache_path_);
        EXPECT_GE(cache.loadReport().entriesSkipped, 1u);
        EXPECT_TRUE(cache.loadReport().tornTailTruncated);
        EXPECT_FALSE(cache.loadReport().quarantined)
            << "a torn tail must not quarantine the valid prefix";

        Exhaustive ex(runner, cache);
        const ComboTable recovered = ex.sweep(wl, {1, 4});

        // The surviving entries resume from cache, the damaged ones
        // are recomputed — and the figures match the original sweep
        // bit for bit.
        EXPECT_GE(ex.status().simulated, 1u);
        EXPECT_EQ(ex.status().fromCache + ex.status().simulated, 4u);
        EXPECT_EQ(ex.status().skipped, 0u);
        for (std::size_t i = 0; i < original.results.size(); ++i) {
            for (std::size_t a = 0; a < 2; ++a) {
                EXPECT_DOUBLE_EQ(recovered.results[i].apps[a].ipc,
                                 original.results[i].apps[a].ipc);
                EXPECT_DOUBLE_EQ(recovered.results[i].apps[a].bw,
                                 original.results[i].apps[a].bw);
            }
        }
        EXPECT_EQ(Exhaustive::argmax(recovered, OptTarget::EbWS),
                  Exhaustive::argmax(original, OptTarget::EbWS));
        return 0;
    });
    EXPECT_EQ(rc, 0) << "recovery must not escalate to an abort";
}

/**
 * Acceptance scenario 2: NaN EB samples injected mid-search degrade
 * every window, the search cannot converge, and the watchdog applies
 * the caller-documented fallback combination.
 */
TEST_F(FaultInjectionTest, NanEbMidSearchFallsBackToDocumentedCombo)
{
    GpuConfig cfg = test::tinyConfig(2);
    Gpu gpu(cfg, {test::streamingApp(), test::cacheApp()});

    FaultInjector fi(17);
    // Let a few clean windows through, then poison the relay.
    fi.armAfter(Point::EbSampleNan, 3, 1000);

    PbsPolicy::Params params;
    params.objective = EbObjective::WS;
    params.searchBudgetWindows = 12;
    params.fallbackCombo = {2, 2}; // caller's ++bestTLP combination
    PbsPolicy policy(params);

    driveInjected(gpu, policy, &fi, 25);

    EXPECT_GE(policy.degradedWindows(), 1u);
    EXPECT_GE(policy.searchesAbandoned(), 1u);
    EXPECT_TRUE(policy.converged());
    EXPECT_EQ(policy.currentCombo(), (TlpCombo{2, 2}));
    EXPECT_EQ(gpu.appTlp(0), 2u);
    EXPECT_EQ(gpu.appTlp(1), 2u);
}

/**
 * A transient run failure is retried and costs nothing but time: the
 * retried table is bit-identical to a clean sweep of the same ladder.
 * Two workers share four rows, so each runs several on one thread.
 */
TEST_F(FaultInjectionTest, TransientRunFailureIsRetried)
{
    RunOptions opts = test::tinyOptions();
    FaultInjector fi(5);
    fi.armAfter(Point::RunFail, 1, 1); // second run attempt dies once
    opts.faultInjector = &fi;

    Runner runner(test::tinyConfig(2), opts);
    DiskCache cache(cache_path_);
    Exhaustive ex(runner, cache);
    ex.setJobs(2);
    const ComboTable t = ex.sweep(makePair("BLK", "TRD"), {1, 4});

    EXPECT_EQ(ex.status().retried, 1u);
    EXPECT_EQ(ex.status().skipped, 0u);
    for (std::size_t i = 0; i < t.results.size(); ++i) {
        EXPECT_FALSE(t.isSkipped(i));
        EXPECT_GT(t.results[i].apps[0].ipc, 0.0);
    }

    const std::string clean_path = cache_path_ + ".clean";
    std::remove(clean_path.c_str());
    ComboTable clean;
    {
        Runner clean_runner(test::tinyConfig(2), test::tinyOptions());
        DiskCache clean_cache(clean_path);
        Exhaustive clean_ex(clean_runner, clean_cache);
        clean = clean_ex.sweep(makePair("BLK", "TRD"), {1, 4});
    }
    std::remove(clean_path.c_str());

    ASSERT_EQ(t.results.size(), clean.results.size());
    for (std::size_t i = 0; i < t.results.size(); ++i) {
        const RunResult &got = t.results[i];
        const RunResult &want = clean.results[i];
        ASSERT_EQ(got.apps.size(), want.apps.size());
        for (std::size_t a = 0; a < got.apps.size(); ++a) {
            EXPECT_EQ(std::memcmp(&got.apps[a].ipc, &want.apps[a].ipc,
                                  sizeof(double)), 0) << "row " << i;
            EXPECT_EQ(std::memcmp(&got.apps[a].bw, &want.apps[a].bw,
                                  sizeof(double)), 0) << "row " << i;
            EXPECT_EQ(std::memcmp(&got.apps[a].l1Mr, &want.apps[a].l1Mr,
                                  sizeof(double)), 0) << "row " << i;
            EXPECT_EQ(std::memcmp(&got.apps[a].l2Mr, &want.apps[a].l2Mr,
                                  sizeof(double)), 0) << "row " << i;
        }
        EXPECT_EQ(std::memcmp(&got.totalBw, &want.totalBw,
                              sizeof(double)), 0) << "row " << i;
        EXPECT_EQ(got.measuredCycles, want.measuredCycles) << "row " << i;
        EXPECT_EQ(got.finalTlp, want.finalTlp) << "row " << i;
        EXPECT_EQ(got.samplesTaken, want.samplesTaken) << "row " << i;
    }
}

/**
 * A persistently failing combination exhausts its retries, is marked
 * skipped, and the rest of the sweep — including argmax — proceeds.
 */
TEST_F(FaultInjectionTest, PersistentRunFailureSkipsOnlyThatCombo)
{
    RunOptions opts = test::tinyOptions();
    FaultInjector fi(5);
    // The third combination fails on every attempt (1 try + 2
    // retries); its neighbours are untouched.
    fi.armAfter(Point::RunFail, 2, 3);
    opts.faultInjector = &fi;

    Runner runner(test::tinyConfig(2), opts);
    DiskCache cache(cache_path_);
    Exhaustive ex(runner, cache);
    ASSERT_EQ(ex.maxRetries(), 2u);
    const ComboTable t = ex.sweep(makePair("BLK", "TRD"), {1, 4});

    EXPECT_EQ(ex.status().retried, 2u);
    EXPECT_EQ(ex.status().skipped, 1u);
    std::size_t skipped_rows = 0;
    for (std::size_t i = 0; i < t.results.size(); ++i)
        skipped_rows += t.isSkipped(i) ? 1u : 0u;
    EXPECT_EQ(skipped_rows, 1u);
    EXPECT_NE(ex.status().summaryLine().find("1 skipped"),
              std::string::npos);

    // The skipped row never wins the argmax.
    const TlpCombo best = Exhaustive::argmax(t, OptTarget::EbWS);
    EXPECT_FALSE(t.isSkipped(t.indexOf(best)));
}

/**
 * An application draining mid-search (zero traffic, unit miss rates)
 * degrades every window; the watchdog gives up and pins the machine
 * at the safe default level.
 */
TEST_F(FaultInjectionTest, AppDrainTriggersWatchdogPinFallback)
{
    GpuConfig cfg = test::tinyConfig(2);
    Gpu gpu(cfg, {test::streamingApp(), test::cacheApp()});

    FaultInjector fi(23);
    fi.armProbability(Point::AppDrain, 1.0);

    PbsPolicy::Params params;
    params.objective = EbObjective::WS;
    params.searchBudgetWindows = 10;
    // No fallbackCombo: the policy must fall back to the pin level.
    PbsPolicy policy(params);

    driveInjected(gpu, policy, &fi, 20);

    EXPECT_GE(policy.degradedWindows(), 1u);
    EXPECT_GE(policy.searchesAbandoned(), 1u);
    EXPECT_TRUE(policy.converged());
    ASSERT_EQ(policy.currentCombo().size(), 2u);
    for (std::uint32_t tlp : policy.currentCombo())
        EXPECT_EQ(tlp, 4u) << "Guideline-1 pin level";
}

/** Unit check: PbsSearch itself gives up on consecutive bad samples. */
TEST(PbsSearchDegraded, GivesUpAfterConsecutiveInvalidSamples)
{
    PbsSearch search(EbObjective::WS, 2, {1, 2, 4}, ScalingMode::None);
    ASSERT_TRUE(search.nextCombo().has_value());

    EbSample bad;
    bad.apps.resize(2);
    bad.degraded = true;
    for (std::uint32_t i = 0;
         i < PbsSearch::kMaxConsecutiveInvalid && !search.done(); ++i)
        search.observe(bad);

    EXPECT_TRUE(search.done());
    EXPECT_TRUE(search.failed());
    EXPECT_EQ(search.invalidSamples(),
              PbsSearch::kMaxConsecutiveInvalid);
    EXPECT_EQ(search.best(), (TlpCombo{4, 4}))
        << "give-up combination is the safe pin level";
}

/** A lone degraded window only delays the search, never corrupts it. */
TEST(PbsSearchDegraded, RecoversWhenGoodSamplesResume)
{
    PbsSearch search(EbObjective::WS, 2, {1, 2, 4}, ScalingMode::None);

    EbSample bad;
    bad.apps.resize(2);
    bad.degraded = true;

    std::uint32_t guard = 0;
    while (!search.done() && guard++ < 200) {
        const auto combo = search.nextCombo();
        ASSERT_TRUE(combo.has_value());
        // Every other observation is degraded noise.
        if (guard % 2 == 0) {
            search.observe(bad);
            continue;
        }
        EbSample good;
        good.apps.resize(2);
        for (std::size_t a = 0; a < 2; ++a) {
            good.apps[a].bw = 0.1 * static_cast<double>((*combo)[a]);
            good.apps[a].l1Mr = 0.5;
            good.apps[a].l2Mr = 0.5;
        }
        good.totalBw = good.apps[0].bw + good.apps[1].bw;
        good.tlp = *combo;
        search.observe(good);
    }

    EXPECT_TRUE(search.done());
    EXPECT_FALSE(search.failed()) << "interleaved noise is survivable";
    EXPECT_GT(search.invalidSamples(), 0u);
}

} // namespace
} // namespace ebm
