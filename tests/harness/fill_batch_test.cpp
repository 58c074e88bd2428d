/**
 * @file
 * Batched fills equal one-at-a-time calls. A ProfileDb::profile batch
 * and an Exhaustive::sweep batch must give the same alone profiles,
 * the same combination tables, the same SweepStatus counts and the
 * same compacted store bytes as one profile(app) call per app and one
 * sweep(wl) call per workload — at one worker and at four, and with a
 * fault injector armed, where the injector must also see the same
 * query sequence.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/fault_injector.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/profile_db.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

using Point = FaultInjector::Point;

const std::vector<std::uint32_t> kLadder = {1, 2, 4};

/** Four apps, one listed twice: a repeat requests no second profile. */
std::vector<AppProfile>
batchApps()
{
    return {findApp("BLK"), findApp("TRD"), findApp("BFS"),
            findApp("BLK"), findApp("FFT")};
}

std::vector<Workload>
batchWorkloads()
{
    return {makePair("BLK", "TRD"), makePair("BFS", "FFT"),
            makePair("BLK", "BFS")};
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameStats(const AppRunStats &a, const AppRunStats &b)
{
    return sameBits(a.ipc, b.ipc) && sameBits(a.bw, b.bw) &&
           sameBits(a.l1Mr, b.l1Mr) && sameBits(a.l2Mr, b.l2Mr);
}

/** Everything one fill leaves behind. */
struct Fill
{
    std::vector<AppAloneProfile> profiles;
    std::vector<ComboTable> tables;
    SweepStatus profileStatus;
    SweepStatus sweepStatus;
    /** Queries and firings of every armed point, both injectors. */
    std::vector<std::uint64_t> injectorCounts;
    std::string store; ///< Compacted store bytes.
};

enum class Mode { OneAtATime, Batched };

/**
 * Profile batchApps() and then sweep batchWorkloads() into a fresh
 * store at @p path, one call per item or one batch call each.
 */
Fill
fillStore(const std::string &path, Mode mode, std::uint32_t jobs,
          bool armed)
{
    std::remove(path.c_str());
    Fill out;
    {
        // Profiles query the shared injector during their runs (the
        // pass stays serial); sweeps pre-draw run failures from it and
        // fork it per row for the monitor-level points.
        FaultInjector profile_fi(17);
        profile_fi.armProbability(Point::AppDrain, 0.2);
        profile_fi.armProbability(Point::EbSampleNan, 0.1);
        FaultInjector sweep_fi(23);
        sweep_fi.armProbability(Point::RunFail, 0.5);
        sweep_fi.armProbability(Point::AppDrain, 0.2);
        RunOptions profile_opts = test::tinyOptions();
        RunOptions sweep_opts = test::tinyOptions();
        if (armed) {
            profile_opts.faultInjector = &profile_fi;
            sweep_opts.faultInjector = &sweep_fi;
        }
        const Runner profile_runner(test::tinyConfig(2), profile_opts);
        const Runner sweep_runner(test::tinyConfig(2), sweep_opts);

        DiskCache cache(path);
        ProfileDb profiles(profile_runner, cache);
        profiles.setJobs(jobs);
        Exhaustive ex(sweep_runner, cache);
        ex.setJobs(jobs);
        if (mode == Mode::Batched) {
            out.profiles = profiles.profile(batchApps());
            out.tables = ex.sweep(batchWorkloads(), kLadder);
        } else {
            for (const AppProfile &app : batchApps())
                out.profiles.push_back(profiles.profile(app));
            for (const Workload &wl : batchWorkloads())
                out.tables.push_back(ex.sweep(wl, kLadder));
        }
        out.profileStatus = profiles.status();
        out.sweepStatus = ex.status();
        for (const FaultInjector *fi : {&profile_fi, &sweep_fi}) {
            for (const Point p :
                 {Point::RunFail, Point::AppDrain, Point::EbSampleNan}) {
                out.injectorCounts.push_back(fi->queries(p));
                out.injectorCounts.push_back(fi->fired(p));
            }
        }
        EXPECT_TRUE(cache.compact());
    }
    out.store = slurp(path);
    std::remove(path.c_str());
    return out;
}

void
expectSameStatus(const SweepStatus &a, const SweepStatus &b,
                 const char *what)
{
    EXPECT_EQ(a.combos, b.combos) << what;
    EXPECT_EQ(a.fromCache, b.fromCache) << what;
    EXPECT_EQ(a.simulated, b.simulated) << what;
    EXPECT_EQ(a.fromPeers, b.fromPeers) << what;
    EXPECT_EQ(a.retried, b.retried) << what;
    EXPECT_EQ(a.skipped, b.skipped) << what;
}

void
expectSameFill(const Fill &a, const Fill &b)
{
    ASSERT_EQ(a.profiles.size(), b.profiles.size());
    for (std::size_t i = 0; i < a.profiles.size(); ++i) {
        const AppAloneProfile &x = a.profiles[i];
        const AppAloneProfile &y = b.profiles[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.levels, y.levels) << x.name;
        EXPECT_EQ(x.bestTlp, y.bestTlp) << x.name;
        EXPECT_TRUE(sameBits(x.ipcAtBest, y.ipcAtBest)) << x.name;
        EXPECT_TRUE(sameBits(x.ebAtBest, y.ebAtBest)) << x.name;
        ASSERT_EQ(x.perLevel.size(), y.perLevel.size()) << x.name;
        for (std::size_t l = 0; l < x.perLevel.size(); ++l) {
            EXPECT_TRUE(sameStats(x.perLevel[l], y.perLevel[l]))
                << x.name << " level " << x.levels[l];
        }
    }

    ASSERT_EQ(a.tables.size(), b.tables.size());
    for (std::size_t w = 0; w < a.tables.size(); ++w) {
        const ComboTable &x = a.tables[w];
        const ComboTable &y = b.tables[w];
        EXPECT_EQ(x.levels, y.levels) << "workload " << w;
        EXPECT_EQ(x.combos, y.combos) << "workload " << w;
        EXPECT_EQ(x.skipped, y.skipped) << "workload " << w;
        ASSERT_EQ(x.results.size(), y.results.size());
        for (std::size_t row = 0; row < x.results.size(); ++row) {
            const RunResult &r = x.results[row];
            const RunResult &s = y.results[row];
            EXPECT_EQ(r.measuredCycles, s.measuredCycles)
                << "workload " << w << " row " << row;
            ASSERT_EQ(r.apps.size(), s.apps.size());
            for (std::size_t i = 0; i < r.apps.size(); ++i) {
                EXPECT_TRUE(sameStats(r.apps[i], s.apps[i]))
                    << "workload " << w << " row " << row;
            }
        }
    }

    expectSameStatus(a.profileStatus, b.profileStatus, "profiles");
    expectSameStatus(a.sweepStatus, b.sweepStatus, "sweeps");
    EXPECT_EQ(a.injectorCounts, b.injectorCounts)
        << "the injector must see the same query sequence";
    ASSERT_FALSE(a.store.empty());
    EXPECT_EQ(a.store, b.store)
        << "the compacted stores must be byte-identical";
}

std::string
storePath(const char *tag)
{
    return ::testing::TempDir() + "ebm_fill_batch_" + tag + "_" +
           ::testing::UnitTest::GetInstance()
               ->current_test_info()
               ->name() +
           ".cache";
}

TEST(FillBatch, BatchesEqualOneAtATimeCalls)
{
    for (const std::uint32_t jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const Fill single =
            fillStore(storePath("single"), Mode::OneAtATime, jobs, false);
        const Fill batched =
            fillStore(storePath("batched"), Mode::Batched, jobs, false);
        expectSameFill(single, batched);

        // Four distinct apps of eight levels each; the repeat of BLK
        // requests nothing. Three tables of nine rows.
        EXPECT_EQ(batched.profileStatus.combos, 32u);
        EXPECT_EQ(batched.profileStatus.simulated, 32u);
        EXPECT_EQ(batched.sweepStatus.combos, 27u);
        EXPECT_EQ(batched.sweepStatus.simulated, 27u);
    }
}

TEST(FillBatch, ArmedInjectorBatchesEqualOneAtATimeCalls)
{
    for (const std::uint32_t jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const Fill single =
            fillStore(storePath("single"), Mode::OneAtATime, jobs, true);
        const Fill batched =
            fillStore(storePath("batched"), Mode::Batched, jobs, true);
        expectSameFill(single, batched);

        // The schedule must actually bite for the comparison to mean
        // anything: retried and skipped rows, and monitor faults
        // during the alone runs.
        EXPECT_GT(batched.sweepStatus.retried, 0u);
        EXPECT_GT(batched.sweepStatus.skipped, 0u);
        EXPECT_GT(batched.injectorCounts[3], 0u)
            << "no AppDrain fired during the profiles";
    }
}

/**
 * An alone run has no retry path, so an injected run failure ends the
 * profile fill. An armed profile batch runs serially in (app, level)
 * order, so it stops at the same run as one-at-a-time calls and
 * leaves the same rows in the store.
 */
TEST(FillBatch, ArmedProfileBatchFailsAtTheOneAtATimeRun)
{
    std::vector<std::string> stores;
    for (const Mode mode : {Mode::OneAtATime, Mode::Batched}) {
        const std::string path = storePath(
            mode == Mode::Batched ? "batched" : "single");
        std::remove(path.c_str());
        {
            FaultInjector fi(3);
            fi.armAfter(Point::RunFail, 13, 1);
            RunOptions opts = test::tinyOptions();
            opts.faultInjector = &fi;
            const Runner runner(test::tinyConfig(2), opts);
            DiskCache cache(path);
            ProfileDb profiles(runner, cache);
            profiles.setJobs(4);
            if (mode == Mode::Batched) {
                EXPECT_EBM_FATAL(profiles.profile(batchApps()),
                                 "injected run failure");
            } else {
                EXPECT_EBM_FATAL(
                    for (const AppProfile &app : batchApps())
                        profiles.profile(app),
                    "injected run failure");
            }
            EXPECT_EQ(fi.queries(Point::RunFail), 14u);
            EXPECT_EQ(cache.size(), 13u)
                << "the runs before the failing one are persisted";
            EXPECT_TRUE(cache.compact());
        }
        stores.push_back(slurp(path));
        std::remove(path.c_str());
    }
    ASSERT_FALSE(stores[0].empty());
    EXPECT_EQ(stores[0], stores[1])
        << "the batch must persist the same levels before failing";
}

TEST(FillBatch, RepeatedOrMemoizedItemsRequestNothing)
{
    const std::string path = storePath("memo");
    std::remove(path.c_str());
    {
        const Runner runner(test::tinyConfig(2), test::tinyOptions());
        DiskCache cache(path);
        ProfileDb profiles(runner, cache);
        profiles.setJobs(2);
        const AppAloneProfile &blk = profiles.profile(findApp("BLK"));
        const std::vector<AppAloneProfile> batch = profiles.profile(
            std::vector<AppProfile>{findApp("TRD"), findApp("BLK"),
                                    findApp("TRD")});
        ASSERT_EQ(batch.size(), 3u);
        EXPECT_EQ(batch[0].name, "TRD");
        EXPECT_EQ(batch[1].bestTlp, blk.bestTlp);
        EXPECT_EQ(batch[2].bestTlp, batch[0].bestTlp);
        EXPECT_EQ(profiles.status().combos, 16u)
            << "one ladder per distinct app, memoized ones excluded";
        EXPECT_EQ(profiles.status().simulated, 16u);

        // An empty batch fills nothing.
        EXPECT_TRUE(profiles.profile(std::vector<AppProfile>{}).empty());
        Exhaustive ex(runner, cache);
        EXPECT_TRUE(ex.sweep(std::vector<Workload>{}, kLadder).empty());
        EXPECT_EQ(ex.status().combos, 0u);
    }
    std::remove(path.c_str());
}

TEST(FillBatch, SweepBatchNeedsOneAppCountAndDistinctNames)
{
    const std::string path = storePath("shape");
    std::remove(path.c_str());
    {
        const Runner runner(test::tinyConfig(2), test::tinyOptions());
        DiskCache cache(path);
        Exhaustive ex(runner, cache);
        const Workload three{"BLK_BFS_TRD", {"BLK", "BFS", "TRD"}};
        EXPECT_EBM_FATAL(
            ex.sweep(std::vector<Workload>{makePair("BLK", "TRD"), three},
                     {1}),
            "one app count");
        EXPECT_EBM_FATAL(
            ex.sweep(std::vector<Workload>{makePair("BLK", "TRD"),
                                           makePair("BLK", "TRD")},
                     {1}),
            "listed twice");
        EXPECT_EQ(ex.status().combos, 0u)
            << "a rejected batch requests no rows";
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace ebm
