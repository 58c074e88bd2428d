/**
 * @file
 * Online-policy runs as store rows: the key covers every input that
 * can change a run, the record round-trips exactly and rejects any
 * other shape, and a batch reads back cold-equal at any job count.
 */
#include "harness/online_runs.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/dyncta.hpp"
#include "core/mod_bypass.hpp"
#include "core/pbs_policy.hpp"

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

std::vector<AppProfile>
pairApps()
{
    return {test::streamingApp(), test::cacheApp()};
}

/**
 * The default policy's key, then one key per single-field edit of its
 * Params: all of them must differ.
 */
template <typename Params>
void
expectEachEditChangesKey(
    const Runner &runner, const char *type,
    const std::function<std::unique_ptr<TlpPolicy>(const Params &)> &make,
    const std::vector<std::pair<const char *,
                                std::function<void(Params &)>>> &edits)
{
    std::set<std::string> keys;
    keys.insert(runner.onlineKey(pairApps(), *make(Params{}), {}));
    for (const auto &[field, edit] : edits) {
        Params params;
        edit(params);
        EXPECT_TRUE(
            keys.insert(runner.onlineKey(pairApps(), *make(params), {}))
                .second)
            << type << "::Params::" << field << " does not reach the key";
    }
}

TEST(OnlineKey, EveryPbsParamChangesTheKey)
{
    const Runner runner(test::tinyConfig(2), test::tinyOptions());
    using P = PbsPolicy::Params;
    expectEachEditChangesKey<P>(
        runner, "PbsPolicy",
        [](const P &p) { return std::make_unique<PbsPolicy>(p); },
        {{"objective", [](P &p) { p.objective = EbObjective::FI; }},
         {"scaling", [](P &p) { p.scaling = ScalingMode::UserGroup; }},
         {"userScale", [](P &p) { p.userScale = {1.0, 2.0}; }},
         {"reverifyWindows", [](P &p) { p.reverifyWindows = 8; }},
         {"settleWindows", [](P &p) { p.settleWindows = 1; }},
         {"measureWindows", [](P &p) { p.measureWindows = 3; }},
         {"searchBudgetWindows", [](P &p) { p.searchBudgetWindows = 40; }},
         {"fallbackCombo", [](P &p) { p.fallbackCombo = {4, 4}; }}});
}

TEST(OnlineKey, EveryDynCtaParamChangesTheKey)
{
    const Runner runner(test::tinyConfig(2), test::tinyOptions());
    using P = DynCta::Params;
    expectEachEditChangesKey<P>(
        runner, "DynCta",
        [](const P &p) { return std::make_unique<DynCta>(p); },
        {{"stallHigh", [](P &p) { p.stallHigh = 0.3; }},
         {"stallLow", [](P &p) { p.stallLow = 0.1; }},
         {"memWaitHigh", [](P &p) { p.memWaitHigh = 0.9; }},
         {"initialTlp", [](P &p) { p.initialTlp = 4; }}});
}

TEST(OnlineKey, EveryModBypassParamChangesTheKey)
{
    const Runner runner(test::tinyConfig(2), test::tinyOptions());
    using P = ModBypass::Params;
    expectEachEditChangesKey<P>(
        runner, "ModBypass",
        [](const P &p) { return std::make_unique<ModBypass>(p); },
        {{"modulation.stallHigh",
          [](P &p) { p.modulation.stallHigh = 0.3; }},
         {"modulation.stallLow", [](P &p) { p.modulation.stallLow = 0.1; }},
         {"modulation.memWaitHigh",
          [](P &p) { p.modulation.memWaitHigh = 0.9; }},
         {"modulation.initialTlp",
          [](P &p) { p.modulation.initialTlp = 4; }},
         {"bypassL1MrThreshold",
          [](P &p) { p.bypassL1MrThreshold = 0.8; }},
         {"bypassL2MrThreshold",
          [](P &p) { p.bypassL2MrThreshold = 0.8; }},
         {"confirmWindows", [](P &p) { p.confirmWindows = 3; }},
         {"probePeriod", [](P &p) { p.probePeriod = 4; }}});
}

TEST(OnlineKey, PolicyTypesNeverShareAKey)
{
    const Runner runner(test::tinyConfig(2), test::tinyOptions());
    std::set<std::string> keys;
    EXPECT_TRUE(keys.insert(runner.onlineKey(pairApps(), DynCta{}, {})).second);
    EXPECT_TRUE(
        keys.insert(runner.onlineKey(pairApps(), ModBypass{}, {})).second);
    EXPECT_TRUE(
        keys.insert(runner.onlineKey(pairApps(),
                                     PbsPolicy(PbsPolicy::Params{}), {}))
            .second);
    EXPECT_TRUE(keys.insert(runner.onlineKey(
                                pairApps(),
                                StaticTlpPolicy("static", {4, 4}), {}))
                    .second);

    // A subclass that inherits fingerprint() still gets its own key.
    class Derived : public StaticTlpPolicy
    {
      public:
        Derived() : StaticTlpPolicy("static", {4, 4}) {}
    };
    EXPECT_TRUE(
        keys.insert(runner.onlineKey(pairApps(), Derived{}, {})).second);
}

TEST(OnlineKey, RunInputsChangeTheKey)
{
    const Runner runner(test::tinyConfig(2), test::tinyOptions());
    const DynCta policy;
    std::set<std::string> keys;
    auto distinct = [&](const Runner &r, const std::vector<AppProfile> &apps,
                        const std::vector<std::uint32_t> &share) {
        return keys.insert(r.onlineKey(apps, policy, share)).second;
    };
    EXPECT_TRUE(distinct(runner, pairApps(), {}));
    EXPECT_TRUE(distinct(runner, pairApps(), {2, 2})) << "core share";
    EXPECT_TRUE(distinct(runner, pairApps(), {3, 1})) << "core share";

    std::vector<AppProfile> apps = pairApps();
    apps[1].fracL2Reuse += 0.05;
    EXPECT_TRUE(distinct(runner, apps, {})) << "app profile content";
    EXPECT_TRUE(distinct(runner, {pairApps()[1], pairApps()[0]}, {}))
        << "app order";

    for (const auto &edit : std::vector<std::function<void(RunOptions &)>>{
             [](RunOptions &o) { o.measureCycles += 500; },
             [](RunOptions &o) { o.windowCycles = 250; },
             [](RunOptions &o) { o.relaunchInterval = 3000; }}) {
        RunOptions opts = test::tinyOptions();
        edit(opts);
        EXPECT_TRUE(distinct(Runner(test::tinyConfig(2), opts), pairApps(),
                             {}))
            << "run options";
    }
}

/** Bit-exact equality of every field an online record carries. */
void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(encodeOnlineRecord(a), encodeOnlineRecord(b));
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(a.apps[i].ipc, b.apps[i].ipc);
        EXPECT_EQ(a.apps[i].bw, b.apps[i].bw);
        EXPECT_EQ(a.apps[i].l1Mr, b.apps[i].l1Mr);
        EXPECT_EQ(a.apps[i].l2Mr, b.apps[i].l2Mr);
    }
    EXPECT_EQ(a.totalBw, b.totalBw);
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.finalTlp, b.finalTlp);
    EXPECT_EQ(a.samplesTaken, b.samplesTaken);
    EXPECT_EQ(a.tlpTimeline, b.tlpTimeline);
}

RunResult
syntheticRun(std::size_t n, std::size_t entries)
{
    RunResult r;
    r.apps.resize(n);
    for (std::size_t a = 0; a < n; ++a) {
        r.apps[a] = {0.1 + static_cast<double>(a), 0.25 / (1.0 + a),
                     0.5 + 0.01 * static_cast<double>(a), 1.0 / 3.0};
        r.totalBw += r.apps[a].bw;
        r.finalTlp.push_back(static_cast<std::uint32_t>(2 * a + 1));
    }
    r.measuredCycles = 123'457;
    r.samplesTaken = 17;
    for (std::size_t e = 0; e < entries; ++e) {
        TlpCombo combo;
        for (std::size_t a = 0; a < n; ++a)
            combo.push_back(static_cast<std::uint32_t>(1 + (e + a) % 24));
        r.tlpTimeline.emplace_back(1000 * (e + 1), combo);
    }
    return r;
}

TEST(OnlineRecord, RoundTripsAtTwoAndThreeApps)
{
    for (const std::size_t n : {2u, 3u}) {
        for (const std::size_t entries : {0u, 1u, 7u}) {
            SCOPED_TRACE(std::to_string(n) + " apps, " +
                         std::to_string(entries) + " entries");
            const RunResult r = syntheticRun(n, entries);
            const std::vector<double> v = encodeOnlineRecord(r);
            EXPECT_EQ(v.size(), 5 * n + 4 + entries * (n + 1));
            EXPECT_TRUE(onlineRecordShape(n).fits(v));
            expectSameRun(decodeOnlineRecord(v, n), r);
        }
    }
}

TEST(OnlineRecord, MultiRelaunchPbsRunRoundTripsThroughTheStore)
{
    RunOptions opts = test::tinyOptions();
    opts.relaunchInterval = 2500;
    const Runner runner(test::tinyConfig(2), opts);
    PbsPolicy policy(PbsPolicy::Params{});
    const RunResult run = runner.run(pairApps(), policy);
    ASSERT_GT(run.tlpTimeline.size(), 3u) << "searches after relaunches";

    const std::string path = ::testing::TempDir() + "ebm_online_rt.cache";
    std::remove(path.c_str());
    const std::string key = runner.onlineKey(pairApps(), policy, {});
    {
        DiskCache cache(path);
        cache.put(key, encodeOnlineRecord(run));
    }
    DiskCache reopened(path);
    const auto got = reopened.getValidated(key, onlineRecordShape(2));
    ASSERT_TRUE(got.has_value());
    expectSameRun(decodeOnlineRecord(*got, 2), run);
    std::remove(path.c_str());
}

TEST(OnlineRecord, AnyOtherShapeIsAMiss)
{
    const std::vector<double> good = encodeOnlineRecord(syntheticRun(2, 3));
    const std::size_t count_at = 5 * 2 + 3; // The last head value.
    ASSERT_EQ(good[count_at], 3.0);

    std::vector<std::pair<const char *, std::vector<double>>> bad;
    bad.emplace_back("empty", std::vector<double>{});
    bad.emplace_back("truncated head", std::vector<double>(good.begin(),
                                                            good.begin() + 5));
    bad.emplace_back("truncated tail", std::vector<double>(good.begin(),
                                                            good.end() - 1));
    bad.emplace_back("padded", good);
    bad.back().second.push_back(0.0);
    bad.emplace_back("padded by an entry", good);
    bad.back().second.insert(bad.back().second.end(), {1.0, 2.0, 3.0});
    for (const double count : {2.0, 4.0, -1.0, 2.5, 1e300, std::nan("")}) {
        bad.emplace_back("count", good);
        bad.back().second[count_at] = count;
    }
    bad.emplace_back("three-app shape", encodeOnlineRecord(syntheticRun(3, 3)));

    const std::string path = ::testing::TempDir() + "ebm_online_bad.cache";
    std::remove(path.c_str());
    DiskCache cache(path);
    for (std::size_t i = 0; i < bad.size(); ++i) {
        SCOPED_TRACE(bad[i].first);
        EXPECT_FALSE(onlineRecordShape(2).fits(bad[i].second));
        const std::string key = "online/bad/" + std::to_string(i);
        cache.put(key, bad[i].second);
        EXPECT_FALSE(cache.getValidated(key, onlineRecordShape(2))
                         .has_value());
    }

    // A batch whose row holds a wrong-shape record recomputes it.
    const Runner runner(test::tinyConfig(2), test::tinyOptions());
    std::vector<OnlineJob> batch;
    batch.push_back({&runner, pairApps(), std::make_unique<DynCta>()});
    cache.put(runner.onlineKey(pairApps(), *batch[0].policy, {}),
              bad[2].second);
    SweepStatus status;
    const std::vector<RunResult> got = runOnlineJobs(cache, 1, batch, status);
    EXPECT_EQ(status.simulated, 1u);
    DynCta direct;
    expectSameRun(got[0], runner.run(pairApps(), direct));
    std::remove(path.c_str());
}

class OnlineBatchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = ::testing::TempDir() + "ebm_online_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
        for (const char *suffix : {"_a.cache", "_b.cache"})
            paths_.push_back(stem_ + suffix);
        removeAll();
    }

    void TearDown() override { removeAll(); }

    void
    removeAll()
    {
        for (const std::string &p : paths_) {
            std::remove(p.c_str());
            std::remove((p + ".tmp").c_str());
        }
    }

    /** ++DynCTA, Mod+Bypass and PBS-WS on one pair, plus PBS-WS on
     * an unequal core split. */
    std::vector<OnlineJob>
    batch() const
    {
        std::vector<OnlineJob> jobs;
        jobs.push_back({&runner_, pairApps(), std::make_unique<DynCta>()});
        jobs.push_back({&runner_, pairApps(), std::make_unique<ModBypass>()});
        jobs.push_back({&runner_, pairApps(), std::make_unique<PbsPolicy>(
                                                  PbsPolicy::Params{})});
        jobs.push_back({&runner_, pairApps(),
                        std::make_unique<PbsPolicy>(PbsPolicy::Params{}),
                        {3, 1}});
        return jobs;
    }

    std::string stem_;
    std::vector<std::string> paths_;
    Runner runner_{test::tinyConfig(2), test::tinyOptions()};
};

TEST_F(OnlineBatchTest, ColdFillEqualsDirectRunsAndWarmReadSimulatesNothing)
{
    std::vector<RunResult> cold;
    {
        DiskCache cache(paths_[0]);
        SweepStatus status;
        cold = runOnlineJobs(cache, 2, batch(), status);
        EXPECT_EQ(status.combos, 4u);
        EXPECT_EQ(status.simulated, 4u);
    }
    const std::vector<OnlineJob> direct = batch();
    for (std::size_t j = 0; j < direct.size(); ++j) {
        SCOPED_TRACE("job " + std::to_string(j));
        expectSameRun(cold[j], runner_.run(direct[j].apps, *direct[j].policy,
                                           direct[j].coreShare));
    }

    DiskCache cache(paths_[0]);
    SweepStatus status;
    const std::vector<RunResult> warm =
        runOnlineJobs(cache, 2, batch(), status);
    EXPECT_EQ(status.fromCache, 4u);
    EXPECT_EQ(status.simulated, 0u);
    for (std::size_t j = 0; j < warm.size(); ++j)
        expectSameRun(warm[j], cold[j]);
}

TEST_F(OnlineBatchTest, JobCountNeverChangesTheCompactedStore)
{
    for (const std::uint32_t jobs : {1u, 4u}) {
        DiskCache cache(paths_[jobs == 1 ? 0 : 1]);
        SweepStatus status;
        runOnlineJobs(cache, jobs, batch(), status);
        ASSERT_TRUE(cache.compact());
    }
    const std::string serial = slurp(paths_[0]);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, slurp(paths_[1]));
}

TEST_F(OnlineBatchTest, MixedAppCountsAreRejected)
{
    DiskCache cache(paths_[0]);
    std::vector<OnlineJob> jobs = batch();
    jobs.push_back({&runner_,
                    {test::streamingApp(), test::cacheApp(),
                     test::computeApp()},
                    std::make_unique<DynCta>()});
    SweepStatus status;
    EXPECT_EBM_FATAL(runOnlineJobs(cache, 1, jobs, status),
                     "mixes app counts");
}

} // namespace
} // namespace ebm
