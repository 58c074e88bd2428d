/**
 * @file
 * The chaos acceptance suite: forked peers sharing one store, SIGKILLed
 * at seeded crash points — lease held (nothing durable), post-put
 * pre-release (result durable, lease orphaned), and mid-way through a
 * store append (torn bytes on disk) — across {2, 4} processes x jobs
 * {1, 8}. A kill-loop re-forks every victim once, clean; the lease
 * protocol re-homes the victims' rows (a dropped connection orphans
 * its leases), torn tails are truncated by the next writer, and the
 * compacted shared store is byte-identical to a crash-free
 * single-process run. fsck agrees the survivor is clean before
 * compaction touches it.
 */
#include <signal.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/fault_injector.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/store_fsck.hpp"

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

bool
tablesBitIdentical(const ComboTable &a, const ComboTable &b)
{
    if (a.combos != b.combos || a.levels != b.levels ||
        a.skipped != b.skipped)
        return false;
    for (std::size_t row = 0; row < a.results.size(); ++row) {
        const RunResult &x = a.results[row];
        const RunResult &y = b.results[row];
        if (x.apps.size() != y.apps.size() ||
            x.measuredCycles != y.measuredCycles ||
            x.finalTlp != y.finalTlp)
            return false;
        if (std::memcmp(&x.totalBw, &y.totalBw, sizeof(double)) != 0)
            return false;
        for (std::size_t i = 0; i < x.apps.size(); ++i) {
            if (std::memcmp(&x.apps[i].ipc, &y.apps[i].ipc,
                            sizeof(double)) != 0 ||
                std::memcmp(&x.apps[i].bw, &y.apps[i].bw,
                            sizeof(double)) != 0 ||
                std::memcmp(&x.apps[i].l1Mr, &y.apps[i].l1Mr,
                            sizeof(double)) != 0 ||
                std::memcmp(&x.apps[i].l2Mr, &y.apps[i].l2Mr,
                            sizeof(double)) != 0)
                return false;
        }
    }
    return true;
}

/** The crash point a slot's first life dies at (rotated so every
 * grid cell with >= 3 workers exercises all three). */
Point
crashPointFor(std::uint32_t slot)
{
    switch (slot % 3) {
    case 0:
        return Point::CrashClaimHeld;
    case 1:
        return Point::CrashPostPut;
    default:
        return Point::IoAbortMidWrite;
    }
}

class ChaosSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = ::testing::TempDir() + "ebm_chaos_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
        ref_path_ = stem_ + "_ref.cache";
        shared_path_ = stem_ + "_shared.cache";
        removeAll();
    }

    void TearDown() override { removeAll(); }

    void
    removeAll()
    {
        for (const std::string &p : {ref_path_, shared_path_}) {
            std::remove(p.c_str());
            std::remove((p + ".quarantined").c_str());
            std::remove((p + ".tmp").c_str());
            std::remove((p + ".fsck-quarantine").c_str());
        }
    }

    std::string stem_;
    std::string ref_path_;
    std::string shared_path_;
};

/**
 * One cooperating peer: sweep the shared store and exit 0 only when
 * its table is bit-identical to @p ref. A first life (@p life 0) has
 * every crash-point draw firing, so it dies at @p slot's designated
 * point on the first row it actually computes; a later life runs
 * clean.
 */
int
chaosPeer(std::uint32_t slot, std::uint32_t life, std::uint32_t jobs,
          const std::string &shared_path, const ComboTable &ref,
          const std::vector<std::uint32_t> &ladder)
{
    RunOptions opts = test::tinyOptions();
    std::optional<FaultInjector> fi;
    if (life == 0) {
        fi.emplace(1000u + slot);
        fi->armAfter(crashPointFor(slot), 0, 64);
        opts.faultInjector = &*fi;
    }
    Runner runner(test::tinyConfig(2), opts);
    DiskCache cache(shared_path, fi ? &*fi : nullptr);
    Exhaustive ex(runner, cache);
    ex.setJobs(jobs);
    const ComboTable mine = ex.sweep(makePair("BLK", "TRD"), ladder);
    return tablesBitIdentical(ref, mine) ? 0 : 2;
}

/**
 * One grid cell: @p procs forked peers (jobs threads each) fill the
 * shared sweep. The kill-loop reaps peers in turn and re-forks each
 * one SIGKILLed at its crash point once, clean; the survivors and the
 * second lives converge on the crash-free bytes.
 */
void
runChaosCell(int procs, std::uint32_t jobs,
             const std::string &shared_path, const ComboTable &ref,
             const std::string &ref_bytes,
             const std::vector<std::uint32_t> &ladder)
{
    SCOPED_TRACE(std::to_string(procs) + "p/" + std::to_string(jobs) +
                 "j");

    struct Peer
    {
        std::uint32_t slot;
        std::uint32_t life;
        pid_t pid;
    };
    auto spawn = [&](std::uint32_t slot, std::uint32_t life) {
        const pid_t pid = test::forkPeer([&] {
            return chaosPeer(slot, life, jobs, shared_path, ref, ladder);
        });
        EXPECT_GE(pid, 0);
        return Peer{slot, life, pid};
    };

    std::deque<Peer> live;
    for (std::uint32_t slot = 0; slot < static_cast<std::uint32_t>(procs);
         ++slot)
        live.push_back(spawn(slot, 0));
    std::uint32_t restarts = 0;
    while (!live.empty()) {
        const Peer peer = live.front();
        live.pop_front();
        const int status = test::reapPeer(peer.pid);
        if (peer.life == 0 && WIFSIGNALED(status) &&
            WTERMSIG(status) == SIGKILL) {
            ++restarts;
            live.push_back(spawn(peer.slot, 1));
            continue;
        }
        EXPECT_TRUE(test::exitedZero(status))
            << "slot " << peer.slot << " life " << peer.life
            << " status " << status;
    }
    EXPECT_GE(restarts, 1u) << "at least one seeded crash must have fired";

    // The surviving store is structurally sound before compaction
    // (all torn tails were truncated by later writers)...
    const FsckReport fsck = fsckStore(shared_path);
    EXPECT_EQ(fsck.verdict, FsckReport::Verdict::Clean)
        << fsck.summaryLine();

    // ...and compacts to the crash-free single-process bytes.
    DiskCache merged(shared_path);
    EXPECT_FALSE(merged.loadReport().quarantined);
    EXPECT_EQ(merged.size(), ref.combos.size());
    ASSERT_TRUE(merged.compact());
    EXPECT_EQ(slurp(shared_path), ref_bytes)
        << "chaos must not change the canonical store bytes";
}

TEST_F(ChaosSweepTest, KilledWorkersConvergeToCrashFreeBytes)
{
    const std::vector<std::uint32_t> ladder = {1, 2, 4};

    // Crash-free single-process reference, compacted.
    ComboTable ref;
    std::string ref_bytes;
    {
        Runner runner(test::tinyConfig(2), test::tinyOptions());
        DiskCache cache(ref_path_);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        ref = ex.sweep(makePair("BLK", "TRD"), ladder);
        ASSERT_EQ(ex.status().simulated, 9u);
        ASSERT_TRUE(cache.compact());
        ref_bytes = slurp(ref_path_);
        ASSERT_FALSE(ref_bytes.empty());
    }

    test::Setting window(&RuntimeConfig::claimStale,
                         std::chrono::milliseconds(300));

    const struct
    {
        int procs;
        std::uint32_t jobs;
    } grid[] = {{2, 1}, {2, 8}, {4, 1}, {4, 8}};
    for (const auto &cfg : grid) {
        std::remove(shared_path_.c_str());
        runChaosCell(cfg.procs, cfg.jobs, shared_path_, ref, ref_bytes,
                     ladder);
    }
}

/**
 * The fsck CLI contract on a chaos-shaped corpse: a store with a torn
 * tail (a mid-append SIGKILL with no subsequent writer) scrubs Dirty
 * and repairs to exactly the durable entries.
 */
TEST_F(ChaosSweepTest, MidAppendKillLeavesARepairableStore)
{
    // One worker, killed mid-append of its second row, never
    // restarted: the store ends in a torn frame.
    const pid_t pid = test::forkPeer([&] {
        FaultInjector fi(7);
        // Shim write ordinals on a fresh store: 0 = header, 1 = first
        // batch, 2 = second batch — kill mid-way through the second.
        fi.armAfter(Point::IoAbortMidWrite, 2, 1);
        DiskCache cache(shared_path_, &fi);
        cache.put("row/1", {1.0, 2.0});
        cache.sync();
        cache.put("row/2", {3.0, 4.0});
        cache.sync();
        return 0; // Unreachable.
    });
    ASSERT_GE(pid, 0);
    const int status = test::reapPeer(pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    const FsckReport scrub = fsckStore(shared_path_);
    EXPECT_EQ(scrub.verdict, FsckReport::Verdict::Dirty);
    EXPECT_TRUE(scrub.tornTail);
    EXPECT_EQ(scrub.framesOk, 1u);

    FsckOptions options;
    options.repair = true;
    const FsckReport repair = fsckStore(shared_path_, options);
    EXPECT_TRUE(repair.repaired);

    DiskCache recovered(shared_path_);
    EXPECT_EQ(recovered.size(), 1u);
    const std::optional<std::vector<double>> row =
        recovered.get("row/1");
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[0], 1.0);
    EXPECT_FALSE(recovered.get("row/2").has_value())
        << "the torn row must be gone, not half-present";
}

} // namespace
} // namespace ebm
