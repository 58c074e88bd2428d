/**
 * @file
 * The chaos acceptance suite: supervised sharded sweeps with workers
 * SIGKILLed at seeded crash points — lease held (nothing durable),
 * post-put pre-release (result durable, lease orphaned), and mid-way
 * through a store append (torn bytes on disk) — across {2, 4}
 * processes x jobs {1, 8}. The supervisor restarts every victim, the
 * staleness protocol re-homes their rows, torn tails are truncated by
 * the next writer, and the compacted shared store is byte-identical
 * to a crash-free single-process run. fsck agrees the survivor is
 * clean before compaction touches it.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <dirent.h>
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
#include "harness/sweep_supervisor.hpp"

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

class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            had_ = true;
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

/** Remove a flat directory (the supervisor's heartbeat files). */
void
removeDirTree(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (d != nullptr) {
        while (struct dirent *e = ::readdir(d)) {
            const std::string name = e->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
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
        hb_dir_ = stem_ + ".hb";
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
        removeDirTree(hb_dir_);
    }

    std::string stem_;
    std::string ref_path_;
    std::string shared_path_;
    std::string hb_dir_;
};

/**
 * One grid cell: @p procs supervised workers (jobs threads each) fill
 * the shared sweep; every slot's first life dies at its seeded crash
 * point; the supervisor restarts it and the survivors converge on the
 * crash-free bytes.
 */
void
runChaosCell(int procs, std::uint32_t jobs,
             const std::string &shared_path, const std::string &hb_dir,
             const ComboTable &ref, const std::string &ref_bytes,
             const std::vector<std::uint32_t> &ladder)
{
    SCOPED_TRACE(std::to_string(procs) + "p/" + std::to_string(jobs) +
                 "j");

    SweepSupervisor::Options o;
    o.workers = static_cast<std::uint32_t>(procs);
    o.maxRestarts = 5;
    o.backoffBase = std::chrono::milliseconds(10);
    o.backoffCap = std::chrono::milliseconds(100);
    o.heartbeatDir = hb_dir;
    // Generous: hang detection is exercised by the supervisor suite;
    // here it must never misfire while workers wait on peers' rows.
    o.hangTimeout = std::chrono::seconds(30);
    SweepSupervisor sup(o);

    const SweepSupervisor::Report report = sup.run(
        [&](std::uint32_t slot, std::uint32_t attempt) {
            RunOptions opts = test::tinyOptions();
            std::optional<FaultInjector> fi;
            FaultInjector *fip = nullptr;
            if (attempt == 0) {
                // First life: every crash-point draw fires, so this
                // worker dies at its designated point on the first
                // row it actually computes. Replacement lives run
                // clean and finish the sweep cooperatively.
                fi.emplace(1000u + slot);
                fi->armAfter(crashPointFor(slot), 0, 64);
                fip = &*fi;
                opts.faultInjector = fip;
            }
            Runner runner(test::tinyConfig(2), opts);
            DiskCache cache(shared_path, fip);
            Exhaustive ex(runner, cache);
            ex.setJobs(jobs);
            const ComboTable mine =
                ex.sweep(makePair("BLK", "TRD"), ladder);
            return tablesBitIdentical(ref, mine) ? 0 : 2;
        });

    EXPECT_TRUE(report.allSucceeded) << report.summaryLine();
    EXPECT_GE(report.totalRestarts, 1u)
        << "at least one seeded crash must have fired: "
        << report.summaryLine();

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

    ScopedEnv shard("EBM_SWEEP_SHARD", "1");
    ScopedEnv stale("EBM_CLAIM_STALE_MS", "300");

    const struct
    {
        int procs;
        std::uint32_t jobs;
    } grid[] = {{2, 1}, {2, 8}, {4, 1}, {4, 8}};
    for (const auto &cfg : grid) {
        std::remove(shared_path_.c_str());
        removeDirTree(hb_dir_);
        runChaosCell(cfg.procs, cfg.jobs, shared_path_, hb_dir_, ref,
                     ref_bytes, ladder);
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
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        FaultInjector fi(7);
        // Shim write ordinals on a fresh store: 0 = header, 1 = first
        // batch, 2 = second batch — kill mid-way through the second.
        fi.armAfter(Point::IoAbortMidWrite, 2, 1);
        DiskCache cache(shared_path_, &fi);
        cache.put("row/1", {1.0, 2.0});
        cache.sync();
        cache.put("row/2", {3.0, 4.0});
        cache.sync();
        ::_exit(0); // Unreachable.
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
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
