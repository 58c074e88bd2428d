/**
 * @file
 * Determinism contract of the parallel sweep path: a sweep dispatched
 * onto 4 workers must be bit-identical — table, compacted cache
 * bytes, retry/skip accounting — to the strictly serial one. (The
 * raw appended file reflects completion order; compact() is the
 * canonical byte representation.) Plus a raw concurrency hammer on
 * DiskCache and the non-finite cache-entry recompute guard.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/fault_injector.hpp"
#include "common/job_pool.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"

namespace ebm {
namespace {

using Point = FaultInjector::Point;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Bitwise comparison: equal doubles with equal representations. */
void
expectBitIdentical(const RunResult &a, const RunResult &b,
                   std::size_t row)
{
    ASSERT_EQ(a.apps.size(), b.apps.size()) << "row " << row;
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(std::memcmp(&a.apps[i].ipc, &b.apps[i].ipc,
                              sizeof(double)), 0)
            << "row " << row << " app " << i << " ipc";
        EXPECT_EQ(std::memcmp(&a.apps[i].bw, &b.apps[i].bw,
                              sizeof(double)), 0)
            << "row " << row << " app " << i << " bw";
        EXPECT_EQ(std::memcmp(&a.apps[i].l1Mr, &b.apps[i].l1Mr,
                              sizeof(double)), 0)
            << "row " << row << " app " << i << " l1Mr";
        EXPECT_EQ(std::memcmp(&a.apps[i].l2Mr, &b.apps[i].l2Mr,
                              sizeof(double)), 0)
            << "row " << row << " app " << i << " l2Mr";
    }
    EXPECT_EQ(std::memcmp(&a.totalBw, &b.totalBw, sizeof(double)), 0)
        << "row " << row << " totalBw";
    EXPECT_EQ(a.measuredCycles, b.measuredCycles) << "row " << row;
    EXPECT_EQ(a.finalTlp, b.finalTlp) << "row " << row;
}

class ParallelSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string stem =
            ::testing::TempDir() + "ebm_par_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name();
        serial_path_ = stem + "_j1.txt";
        parallel_path_ = stem + "_j4.txt";
        removeAll();
    }

    void TearDown() override { removeAll(); }

    void
    removeAll()
    {
        for (const std::string &p : {serial_path_, parallel_path_}) {
            std::remove(p.c_str());
            std::remove((p + ".quarantined").c_str());
            std::remove((p + ".tmp").c_str());
        }
    }

    std::string serial_path_;
    std::string parallel_path_;
};

/**
 * The acceptance test for the parallel sweep: one full 2-app sweep
 * over the paper-shaped 8x8 = 64-combination ladder at jobs=4 must
 * reproduce the jobs=1 table bit for bit — and, because compaction
 * rewrites sorted by key, the two compacted cache files must be
 * byte-identical too.
 */
TEST_F(ParallelSweepTest, JobsFourIsBitIdenticalToJobsOne)
{
    const std::vector<std::uint32_t> ladder = {1, 2, 3, 4, 5, 6, 7, 8};
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");

    ComboTable serial;
    {
        DiskCache cache(serial_path_);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        serial = ex.sweep(wl, ladder);
        EXPECT_EQ(ex.status().simulated, 64u);
        EXPECT_TRUE(cache.compact());
    }

    ComboTable parallel;
    {
        DiskCache cache(parallel_path_);
        Exhaustive ex(runner, cache);
        ex.setJobs(4);
        parallel = ex.sweep(wl, ladder);
        EXPECT_EQ(ex.status().simulated, 64u);
        EXPECT_EQ(ex.status().fromCache, 0u);
        EXPECT_TRUE(cache.compact());
    }

    ASSERT_EQ(serial.combos.size(), 64u);
    ASSERT_EQ(parallel.combos.size(), 64u);
    EXPECT_EQ(serial.levels, parallel.levels);
    EXPECT_EQ(serial.skipped, parallel.skipped);
    for (std::size_t row = 0; row < serial.combos.size(); ++row) {
        EXPECT_EQ(serial.combos[row], parallel.combos[row])
            << "row order must be the odometer order at any job count";
        expectBitIdentical(serial.results[row], parallel.results[row],
                           row);
    }

    const std::string serial_bytes = slurp(serial_path_);
    const std::string parallel_bytes = slurp(parallel_path_);
    ASSERT_FALSE(serial_bytes.empty());
    EXPECT_EQ(serial_bytes, parallel_bytes)
        << "sorted-key compaction must make the cache file "
           "independent of worker interleaving";

    // Nothing was quarantined or left behind by either run.
    for (const std::string &p : {serial_path_, parallel_path_}) {
        std::ifstream q(p + ".quarantined");
        EXPECT_FALSE(q.good()) << p;
        std::ifstream t(p + ".tmp");
        EXPECT_FALSE(t.good()) << p;
    }
}

/** A parallel sweep resumes from a serial sweep's cache (and back). */
TEST_F(ParallelSweepTest, ParallelSweepResumesFromSerialCache)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");

    DiskCache cache(serial_path_);
    Exhaustive ex(runner, cache);
    ex.setJobs(1);
    ex.sweep(wl, {1, 4});

    Exhaustive resumed(runner, cache);
    resumed.setJobs(4);
    resumed.sweep(wl, {1, 4});
    EXPECT_EQ(resumed.status().fromCache, 4u);
    EXPECT_EQ(resumed.status().simulated, 0u);
}

/**
 * Injected run failures under workers: the pre-drawn fault schedule
 * reproduces the serial injector query sequence, so the persistent-
 * failure scenario (third combination dies on every attempt) yields
 * identical retry/skip accounting — and the same skipped row — at
 * jobs=4 as at jobs=1.
 */
TEST_F(ParallelSweepTest, FaultAccountingMatchesSerialUnderWorkers)
{
    auto runWithJobs = [&](std::uint32_t jobs_count,
                           const std::string &path, SweepStatus &status) {
        RunOptions opts = test::tinyOptions();
        FaultInjector fi(5);
        fi.armAfter(Point::RunFail, 2, 3);
        opts.faultInjector = &fi;

        Runner runner(test::tinyConfig(2), opts);
        DiskCache cache(path);
        Exhaustive ex(runner, cache);
        ex.setJobs(jobs_count);
        const ComboTable t = ex.sweep(makePair("BLK", "TRD"), {1, 4});
        status = ex.status();
        EXPECT_TRUE(cache.compact());
        return t;
    };

    SweepStatus serial_status;
    SweepStatus parallel_status;
    const ComboTable serial =
        runWithJobs(1, serial_path_, serial_status);
    const ComboTable parallel =
        runWithJobs(4, parallel_path_, parallel_status);

    EXPECT_EQ(serial_status.retried, 2u);
    EXPECT_EQ(serial_status.skipped, 1u);
    EXPECT_EQ(parallel_status.retried, serial_status.retried);
    EXPECT_EQ(parallel_status.skipped, serial_status.skipped);
    EXPECT_EQ(parallel_status.simulated, serial_status.simulated);

    ASSERT_EQ(serial.skipped.size(), parallel.skipped.size());
    EXPECT_EQ(serial.skipped, parallel.skipped)
        << "the same row must be the skipped one";
    for (std::size_t row = 0; row < serial.combos.size(); ++row)
        expectBitIdentical(serial.results[row], parallel.results[row],
                           row);
    EXPECT_EQ(slurp(serial_path_), slurp(parallel_path_));
}

/**
 * Probability-armed failures are also deterministic across job counts:
 * the pre-draw consumes the injector's RNG serially in row order, so
 * the random schedule itself is identical.
 */
TEST_F(ParallelSweepTest, ProbabilityFaultsDeterministicAcrossJobs)
{
    auto runWithJobs = [&](std::uint32_t jobs_count,
                           const std::string &path, SweepStatus &status) {
        RunOptions opts = test::tinyOptions();
        FaultInjector fi(99);
        fi.armProbability(Point::RunFail, 0.4);
        opts.faultInjector = &fi;

        Runner runner(test::tinyConfig(2), opts);
        DiskCache cache(path);
        Exhaustive ex(runner, cache);
        ex.setJobs(jobs_count);
        const ComboTable t = ex.sweep(makePair("BLK", "TRD"), {1, 4});
        status = ex.status();
        EXPECT_TRUE(cache.compact());
        return t;
    };

    SweepStatus serial_status;
    SweepStatus parallel_status;
    const ComboTable serial =
        runWithJobs(1, serial_path_, serial_status);
    const ComboTable parallel =
        runWithJobs(4, parallel_path_, parallel_status);

    EXPECT_EQ(parallel_status.retried, serial_status.retried);
    EXPECT_EQ(parallel_status.skipped, serial_status.skipped);
    EXPECT_EQ(serial.skipped, parallel.skipped);
    EXPECT_EQ(slurp(serial_path_), slurp(parallel_path_));
}

/**
 * A well-shaped, checksummed cache entry holding NaN (written by a
 * pre-guard version) is treated as a miss: the sweep recomputes the
 * combination and overwrites the poisoned entry.
 */
TEST_F(ParallelSweepTest, NonFiniteCachedComboIsRecomputed)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");

    ComboTable original;
    {
        DiskCache cache(serial_path_);
        Exhaustive ex(runner, cache);
        original = ex.sweep(wl, {1, 4});
    }

    DiskCache cache(serial_path_);
    const std::string key =
        "combo/" + runner.fingerprint() + "/" + wl.name + "/1/1";
    ASSERT_TRUE(cache.get(key).has_value()) << "key construction";
    std::vector<double> poison(4 * 2 + 1, 1.0);
    poison[0] = std::numeric_limits<double>::quiet_NaN();
    cache.put(key, poison);

    EXPECT_FALSE(cache.getValidated(key, poison.size()).has_value())
        << "non-finite entries must read as misses";

    Exhaustive ex(runner, cache);
    ex.setJobs(4);
    const ComboTable recovered = ex.sweep(wl, {1, 4});
    EXPECT_EQ(ex.status().fromCache, 3u);
    EXPECT_EQ(ex.status().simulated, 1u);
    for (std::size_t row = 0; row < original.combos.size(); ++row)
        expectBitIdentical(original.results[row],
                           recovered.results[row], row);

    // The recompute overwrote the poisoned entry in place.
    EXPECT_TRUE(cache.getValidated(key, poison.size()).has_value());
}

/**
 * Raw concurrency hammer: many workers inserting and reading distinct
 * keys. Every entry must survive in memory and on disk, with no
 * persist failures and a clean reload.
 */
TEST_F(ParallelSweepTest, DiskCacheConcurrentPutGetHammer)
{
    constexpr std::size_t kEntries = 200;
    auto keyOf = [](std::size_t i) {
        return "hammer/key" + std::to_string(i);
    };

    {
        DiskCache cache(serial_path_);
        JobPool pool(8);
        for (std::size_t i = 0; i < kEntries; ++i) {
            pool.submit([&cache, &keyOf, i] {
                const std::vector<double> values = {
                    static_cast<double>(i),
                    static_cast<double>(i) * 0.5, 42.0};
                cache.put(keyOf(i), values);
                // Read-back of our own key plus a racing lookup of a
                // neighbour that may or may not be there yet.
                const auto mine = cache.getValidated(keyOf(i), 3);
                ASSERT_TRUE(mine.has_value());
                EXPECT_EQ((*mine)[0], static_cast<double>(i));
                cache.get(keyOf(i / 2));
            });
        }
        pool.wait();
        EXPECT_EQ(cache.size(), kEntries);
        EXPECT_EQ(cache.persistFailures(), 0u);
    }

    // Reload from disk: the coalescing single-writer persist must have
    // covered every inserted entry before the pool drained.
    DiskCache reloaded(serial_path_);
    EXPECT_EQ(reloaded.loadReport().entriesLoaded, kEntries);
    EXPECT_EQ(reloaded.loadReport().entriesSkipped, 0u);
    EXPECT_FALSE(reloaded.loadReport().quarantined);
    for (std::size_t i = 0; i < kEntries; ++i) {
        const auto v = reloaded.getValidated(keyOf(i), 3);
        ASSERT_TRUE(v.has_value()) << keyOf(i);
        EXPECT_EQ((*v)[1], static_cast<double>(i) * 0.5);
    }
}

/**
 * The store keeps one map under one mutex: the hammer — 8 threads over
 * 160 keys, each thread probing cold (miss), inserting, and reading
 * back (hit) — must leave the compacted file a serial run leaves, with
 * exact hit/miss accounting.
 */
TEST_F(ParallelSweepTest, ShardCountNeverChangesBytesOrAccounting)
{
    constexpr std::size_t kKeys = 160;
    auto keyOf = [](std::size_t i) {
        return "shard/key" + std::to_string(i);
    };

    struct Outcome
    {
        std::string bytes;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::size_t size = 0;
    };

    auto hammer = [&](unsigned threads) {
        const std::string path =
            serial_path_ + "." + std::to_string(threads);
        std::remove(path.c_str());
        Outcome out;
        {
            DiskCache cache(path);
            JobPool pool(threads);
            for (std::size_t i = 0; i < kKeys; ++i) {
                // Each worker touches only its own key, so the
                // hit/miss tally is exact at any interleaving: one
                // cold miss, one post-insert hit per key.
                pool.submit([&cache, &keyOf, i] {
                    EXPECT_FALSE(cache.get(keyOf(i)).has_value());
                    cache.put(keyOf(i),
                              {static_cast<double>(i),
                               static_cast<double>(i) * 0.25, 7.0});
                    const auto v = cache.getValidated(keyOf(i), 3);
                    ASSERT_TRUE(v.has_value());
                    EXPECT_EQ((*v)[0], static_cast<double>(i));
                });
            }
            pool.wait();
            // Validation rejects count as misses.
            EXPECT_FALSE(
                cache.getValidated(keyOf(0), 99).has_value());
            out.hits = cache.hits();
            out.misses = cache.misses();
            out.size = cache.size();
            EXPECT_EQ(cache.persistFailures(), 0u);
            EXPECT_TRUE(cache.compact());
        }
        out.bytes = slurp(path);
        std::remove(path.c_str());
        return out;
    };

    const Outcome serial = hammer(1);
    EXPECT_EQ(serial.size, kKeys);
    EXPECT_EQ(serial.hits, kKeys);
    EXPECT_EQ(serial.misses, kKeys + 1);
    ASSERT_FALSE(serial.bytes.empty());

    const Outcome parallel = hammer(8);
    EXPECT_EQ(parallel.bytes, serial.bytes)
        << "8 threads must persist the serial bytes";
    EXPECT_EQ(parallel.hits, serial.hits);
    EXPECT_EQ(parallel.misses, serial.misses);
    EXPECT_EQ(parallel.size, serial.size);
}

/** A store reloads to the same entries and, compacted, to the same
 * bytes, however often it is reopened. */
TEST_F(ParallelSweepTest, ShardCountIsInvisibleAcrossReloads)
{
    {
        DiskCache cache(serial_path_);
        cache.put("a/b", {1.0, 2.0});
        cache.put("c/d", {3.0});
        EXPECT_TRUE(cache.compact());
    }
    const std::string bytes = slurp(serial_path_);
    for (int reopen = 0; reopen < 2; ++reopen) {
        DiskCache reloaded(serial_path_);
        EXPECT_EQ(reloaded.loadReport().entriesLoaded, 2u);
        const auto v = reloaded.getValidated("a/b", 2);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ((*v)[1], 2.0);
        EXPECT_TRUE(reloaded.get("c/d").has_value());
        EXPECT_TRUE(reloaded.compact());
        EXPECT_EQ(slurp(serial_path_), bytes) << "reopen " << reopen;
    }
}

} // namespace
} // namespace ebm
