#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/dyncta.hpp"
#include "core/pbs_policy.hpp"
#include "core/tlp_policy.hpp"

namespace ebm {
namespace {

class RunnerTest : public ::testing::Test
{
  protected:
    RunnerTest() : runner_(test::tinyConfig(2), test::tinyOptions()) {}

    std::vector<AppProfile> apps_ = {test::streamingApp(),
                                     test::cacheApp()};
    Runner runner_;
};

TEST_F(RunnerTest, StaticRunProducesPerAppStats)
{
    const RunResult r = runner_.runStatic(apps_, {4, 4});
    ASSERT_EQ(r.apps.size(), 2u);
    for (const AppRunStats &a : r.apps) {
        EXPECT_GT(a.ipc, 0.0);
        EXPECT_GE(a.bw, 0.0);
        EXPECT_GT(a.l1Mr, 0.0);
        EXPECT_LE(a.l1Mr, 1.0);
        EXPECT_LE(a.l2Mr, 1.0);
    }
    EXPECT_EQ(r.finalTlp, (TlpCombo{4, 4}));
    EXPECT_EQ(r.measuredCycles, test::tinyOptions().measureCycles);
}

TEST_F(RunnerTest, DeterministicAcrossInvocations)
{
    const RunResult a = runner_.runStatic(apps_, {4, 4});
    const RunResult b = runner_.runStatic(apps_, {4, 4});
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_DOUBLE_EQ(a.apps[i].ipc, b.apps[i].ipc);
        EXPECT_DOUBLE_EQ(a.apps[i].bw, b.apps[i].bw);
        EXPECT_DOUBLE_EQ(a.apps[i].l1Mr, b.apps[i].l1Mr);
    }
}

TEST_F(RunnerTest, DifferentCombosDiffer)
{
    const RunResult a = runner_.runStatic(apps_, {1, 1});
    const RunResult b = runner_.runStatic(apps_, {8, 8});
    EXPECT_NE(a.apps[0].ipc, b.apps[0].ipc);
}

TEST_F(RunnerTest, WarmupExcludedFromMeasurement)
{
    // A run measured after warmup must not report the cold-cache
    // miss rate; compare against a no-warmup runner.
    RunOptions cold = test::tinyOptions();
    cold.warmupCycles = 0;
    Runner cold_runner(test::tinyConfig(2), cold);
    const RunResult warm = runner_.runStatic(apps_, {4, 4});
    const RunResult coldr = cold_runner.runStatic(apps_, {4, 4});
    EXPECT_LE(warm.apps[1].l1Mr, coldr.apps[1].l1Mr + 0.02)
        << "warmed caches cannot look colder";
}

TEST_F(RunnerTest, RunAloneUsesPerAppCoreShare)
{
    // A compute-bound app scales with core count, so the half-machine
    // alone run must trail a full-machine solo run (streaming apps
    // would be bandwidth-limited and could not show the difference).
    const AppProfile compute = test::computeApp();
    const RunResult r = runner_.runAlone(compute, 4);
    ASSERT_EQ(r.apps.size(), 1u);
    EXPECT_GT(r.apps[0].ipc, 0.0);
    GpuConfig full = test::tinyConfig(1);
    Runner full_runner(full, test::tinyOptions());
    const RunResult full_r = full_runner.runStatic({compute}, {4});
    EXPECT_LT(r.apps[0].ipc, full_r.apps[0].ipc);
}

TEST_F(RunnerTest, PolicyRunInvokesWindows)
{
    DynCta policy;
    const RunResult r = runner_.run(apps_, policy);
    ASSERT_EQ(r.apps.size(), 2u);
    EXPECT_GT(r.apps[0].ipc, 0.0);
}

TEST_F(RunnerTest, PbsRunCarriesThePolicyTimeline)
{
    RunOptions opts = test::tinyOptions();
    opts.relaunchInterval = 2500;
    Runner runner(test::tinyConfig(2), opts);
    PbsPolicy policy(PbsPolicy::Params{});
    const RunResult r = runner.run(apps_, policy);
    EXPECT_GT(r.tlpTimeline.size(), 3u) << "searches after relaunches";
    EXPECT_EQ(r.tlpTimeline, policy.timeline());

    DynCta untraced;
    EXPECT_TRUE(runner.run(apps_, untraced).tlpTimeline.empty());
}

TEST_F(RunnerTest, RelaunchIntervalTriggersPolicyCallback)
{
    class CountingPolicy : public StaticTlpPolicy
    {
      public:
        CountingPolicy() : StaticTlpPolicy("count", {4, 4}) {}
        void
        onKernelRelaunch(Gpu &, Cycle) override
        {
            ++relaunches;
        }
        std::uint32_t relaunches = 0;
    };

    RunOptions opts = test::tinyOptions();
    opts.relaunchInterval = 2000;
    Runner runner(test::tinyConfig(2), opts);
    CountingPolicy policy;
    runner.run(apps_, policy);
    const Cycle total = opts.warmupCycles + opts.measureCycles;
    EXPECT_EQ(policy.relaunches, total / opts.relaunchInterval);
}

TEST_F(RunnerTest, FingerprintStableForSameConfig)
{
    Runner other(test::tinyConfig(2), test::tinyOptions());
    EXPECT_EQ(runner_.fingerprint(), other.fingerprint());
}

TEST_F(RunnerTest, FingerprintChangesWithConfig)
{
    GpuConfig cfg = test::tinyConfig(2);
    cfg.l1.sizeBytes *= 2;
    Runner other(cfg, test::tinyOptions());
    EXPECT_NE(runner_.fingerprint(), other.fingerprint());
}

TEST_F(RunnerTest, FingerprintChangesWithOptions)
{
    RunOptions opts = test::tinyOptions();
    opts.measureCycles += 1000;
    Runner other(test::tinyConfig(2), opts);
    EXPECT_NE(runner_.fingerprint(), other.fingerprint());
}

TEST_F(RunnerTest, UnequalCoreShareSlowsSmallerApp)
{
    const RunResult even = runner_.runStatic(apps_, {4, 4});
    const RunResult skewed = runner_.runStatic(apps_, {4, 4}, {3, 1});
    EXPECT_LT(skewed.apps[1].ipc, even.apps[1].ipc)
        << "one core instead of two must reduce throughput";
}

TEST_F(RunnerTest, TotalBwIsSumOfApps)
{
    const RunResult r = runner_.runStatic(apps_, {8, 8});
    EXPECT_NEAR(r.totalBw, r.apps[0].bw + r.apps[1].bw, 1e-12);
    EXPECT_LE(r.totalBw, 1.0);
}

} // namespace
} // namespace ebm
