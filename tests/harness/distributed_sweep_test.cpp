/**
 * @file
 * The networked sweep fabric end-to-end: an in-process Coordinator
 * over the authoritative store, with forked worker processes running
 * the ordinary profile/sweep dispatch loop against leased rows over
 * localhost TCP (EBM_COORDINATOR). The acceptance contract is the
 * same one the filesystem protocol locks in the multiprocess suite —
 * every worker's table bit-identical to a serial run, the compacted
 * coordinator store byte-identical to a serial fill — plus the
 * fabric-specific failure modes: workers SIGKILLed mid-lease and
 * mid-sweep, and RunFail-injected workers replicating skips over the
 * wire.
 *
 * Fork discipline: the Coordinator is bind()ed before any fork and
 * start()ed after — children inherit one quiet listening fd, never a
 * running thread's locks (their connects queue in the backlog).
 */
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/fault_injector.hpp"
#include "harness/coordinator.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/lease_net.hpp"
#include "harness/profile_db.hpp"

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

/** Bitwise table equality (the cross-machine identity contract). */
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

class DistributedSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = ::testing::TempDir() + "ebm_dist_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
        ref_path_ = stem_ + "_ref.cache";
        dist_path_ = stem_ + "_dist.cache";
        removeAll();
    }

    void TearDown() override { removeAll(); }

    void
    removeAll()
    {
        std::vector<std::string> paths = {ref_path_, dist_path_};
        for (int i = 0; i < 8; ++i) {
            paths.push_back(scratchPath(i));
            std::remove(statusPath(i).c_str());
            std::remove(readyPath(i).c_str());
        }
        for (const std::string &p : paths) {
            std::remove(p.c_str());
            std::remove((p + ".quarantined").c_str());
            std::remove((p + ".tmp").c_str());
        }
    }

    std::string
    statusPath(int child) const
    {
        return stem_ + ".status." + std::to_string(child);
    }

    std::string
    scratchPath(int child) const
    {
        return stem_ + "_scratch" + std::to_string(child) + ".cache";
    }

    std::string
    readyPath(int child) const
    {
        return stem_ + ".ready." + std::to_string(child);
    }

    /** Serial reference fill: sweep (and optionally profile) into
     * ref_path_, compact, and return the compacted bytes. */
    std::string
    fillSerialReference(const RunOptions &opts,
                        const std::vector<std::uint32_t> &ladder,
                        ComboTable &ref_table, bool with_profiles,
                        const FaultInjector *armed_injector = nullptr)
    {
        RunOptions run_opts = opts;
        std::optional<FaultInjector> fi;
        if (armed_injector != nullptr) {
            fi.emplace(*armed_injector);
            run_opts.faultInjector = &*fi;
        }
        Runner runner(test::tinyConfig(2), run_opts);
        DiskCache cache(ref_path_);
        if (with_profiles) {
            ProfileDb profiles(runner, cache);
            for (const AppProfile &app :
                 resolveApps(makePair("BLK", "TRD")))
                profiles.profile(app);
        }
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        ref_table = ex.sweep(makePair("BLK", "TRD"), ladder);
        EXPECT_TRUE(cache.compact());
        const std::string bytes = slurp(ref_path_);
        EXPECT_FALSE(bytes.empty());
        return bytes;
    }

    /** Fork one distributed worker child running the ordinary
     * dispatch loop against the coordinator at @p address. The child
     * exits 0 only when its table is bit-identical to @p ref. */
    pid_t
    forkWorker(int child, const std::string &address,
               const RunOptions &opts,
               const std::vector<std::uint32_t> &ladder,
               const ComboTable &ref, std::uint32_t jobs_count,
               bool with_profiles,
               const FaultInjector *armed_injector = nullptr,
               int start_delay_ms = 0)
    {
        const pid_t pid = ::fork();
        EXPECT_GE(pid, 0);
        if (pid != 0)
            return pid;
        // Child: a fresh worker process. No gtest assertions here —
        // failures are reported through the exit code.
        int rc = 0;
        {
            test::Setting lease_from(&RuntimeConfig::coordinator, address);
            if (start_delay_ms > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(start_delay_ms));
            }
            RunOptions run_opts = opts;
            std::optional<FaultInjector> fi;
            if (armed_injector != nullptr) {
                // Same seed in every process: the pre-drawn fault
                // schedule is identical everywhere.
                fi.emplace(*armed_injector);
                run_opts.faultInjector = &*fi;
            }
            Runner runner(test::tinyConfig(2), run_opts);
            DiskCache scratch(scratchPath(child));
            if (with_profiles) {
                ProfileDb profiles(runner, scratch);
                for (const AppProfile &app :
                     resolveApps(makePair("BLK", "TRD")))
                    profiles.profile(app);
            }
            Exhaustive ex(runner, scratch);
            ex.setJobs(jobs_count);
            const ComboTable mine =
                ex.sweep(makePair("BLK", "TRD"), ladder);
            if (!tablesBitIdentical(ref, mine))
                rc = 2;
            std::ofstream st(statusPath(child));
            st << ex.status().simulated << "\n";
        }
        ::_exit(rc);
    }

    /** waitpid one child and require a clean zero exit. */
    std::size_t
    reapWorker(pid_t pid, int child)
    {
        int status = 0;
        EXPECT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status)) << "child " << child;
        EXPECT_EQ(WEXITSTATUS(status), 0)
            << "child " << child
            << " saw a table differing from the serial one";
        std::ifstream st(statusPath(child));
        std::size_t n = 0;
        st >> n;
        return n;
    }

    /** Tests choose their coordinator; the suite's own
     * EBM_COORDINATOR never leaks in. */
    test::Setting<std::string> noCoordinator_{&RuntimeConfig::coordinator,
                                              std::string()};
    std::string stem_;
    std::string ref_path_;
    std::string dist_path_;
};

/**
 * The acceptance scenario: {2, 4} workers × jobs {1, 8} cold-fill one
 * paper-shaped 64-combination sweep through the coordinator. Every
 * worker's table is bit-identical to the serial table, the union of
 * their work covers the sweep exactly once (modulo benign takeover
 * races), and the compacted coordinator store is byte-identical to
 * the serial store.
 */
TEST_F(DistributedSweepTest, ForkedColdFillMatchesSerial)
{
    const std::vector<std::uint32_t> ladder = {1, 2, 3, 4,
                                               5, 6, 7, 8};
    ComboTable ref;
    const std::string ref_bytes = fillSerialReference(
        test::tinyOptions(), ladder, ref, /*with_profiles=*/false);
    ASSERT_EQ(ref.combos.size(), 64u);

    const struct
    {
        int workers;
        std::uint32_t jobs;
    } grid[] = {{2, 1}, {4, 1}, {2, 8}};
    for (const auto &cfg : grid) {
        removeAll();
        DiskCache dist(dist_path_);
        Coordinator coordinator(dist, Coordinator::Options{});
        ASSERT_TRUE(coordinator.bind().ok());
        const std::string address = coordinator.address();

        std::vector<pid_t> kids;
        for (int c = 0; c < cfg.workers; ++c) {
            kids.push_back(forkWorker(c, address, test::tinyOptions(),
                                      ladder, ref, cfg.jobs,
                                      /*with_profiles=*/false));
        }
        ASSERT_TRUE(coordinator.start().ok());

        std::size_t sum = 0;
        for (std::size_t c = 0; c < kids.size(); ++c)
            sum += reapWorker(kids[c], static_cast<int>(c));
        coordinator.stop();

        // Cold store: every row was simulated by some worker, and
        // rows are not re-simulated barring a benign takeover race.
        EXPECT_GE(sum, 64u) << cfg.workers << "w/" << cfg.jobs << "j";
        EXPECT_LE(sum, 72u)
            << cfg.workers << "w/" << cfg.jobs
            << "j: workers re-simulated most rows";
        const Coordinator::Stats stats = coordinator.stats();
        EXPECT_GE(stats.recordsCommitted, 64u);
        EXPECT_GE(stats.connections,
                  static_cast<std::uint64_t>(cfg.workers));

        // The coordinator's store, compacted, is the serial bytes.
        dist.sync();
        ASSERT_TRUE(dist.compact());
        EXPECT_EQ(slurp(dist_path_), ref_bytes)
            << cfg.workers << "w/" << cfg.jobs << "j";
    }
}

/**
 * Both dispatch gates over the wire: workers run the full
 * profile-then-sweep loop (alone tables via ProfileDb, combo rows via
 * Exhaustive), and the compacted coordinator store — alone and combo
 * records together — is byte-identical to the serial fill.
 */
TEST_F(DistributedSweepTest, ProfileAndSweepViaCoordinatorMatchSerial)
{
    const std::vector<std::uint32_t> ladder = {1, 4};
    ComboTable ref;
    const std::string ref_bytes = fillSerialReference(
        test::tinyOptions(), ladder, ref, /*with_profiles=*/true);

    DiskCache dist(dist_path_);
    Coordinator coordinator(dist, Coordinator::Options{});
    ASSERT_TRUE(coordinator.bind().ok());
    std::vector<pid_t> kids;
    for (int c = 0; c < 2; ++c) {
        kids.push_back(forkWorker(c, coordinator.address(),
                                  test::tinyOptions(), ladder, ref, 1,
                                  /*with_profiles=*/true));
    }
    ASSERT_TRUE(coordinator.start().ok());
    for (std::size_t c = 0; c < kids.size(); ++c)
        reapWorker(kids[c], static_cast<int>(c));
    coordinator.stop();

    dist.sync();
    ASSERT_TRUE(dist.compact());
    EXPECT_EQ(slurp(dist_path_), ref_bytes);
}

/**
 * A worker SIGKILLed while holding a lease: the drop of its
 * connection orphans the lease at the coordinator, the surviving
 * worker sees STALE without waiting out the (deliberately generous)
 * staleness window, takes the row over under a bumped epoch, and the
 * compacted store still matches the serial fill.
 */
TEST_F(DistributedSweepTest, WorkerKilledMidLeaseIsTakenOver)
{
    const std::vector<std::uint32_t> ladder = {1, 4};
    ComboTable ref;
    const std::string ref_bytes = fillSerialReference(
        test::tinyOptions(), ladder, ref, /*with_profiles=*/false);

    DiskCache dist(dist_path_);
    Coordinator::Options copts;
    // Generous window: the takeover below must come from the orphan
    // rule (connection death), never from clock-based staleness.
    copts.staleThreshold = std::chrono::seconds(60);
    Coordinator coordinator(dist, copts);
    ASSERT_TRUE(coordinator.bind().ok());
    const std::string address = coordinator.address();

    Runner key_runner(test::tinyConfig(2), test::tinyOptions());
    const std::string held_key =
        key_runner.comboKey(makePair("BLK", "TRD").name, {4, 4});

    // Child 0: the doomed lease holder — acquires one row, signals
    // readiness, then stalls as if wedged mid-simulation.
    const pid_t doomed = ::fork();
    ASSERT_GE(doomed, 0);
    if (doomed == 0) {
        int rc = 3;
        {
            auto lease = NetLeaseProvider::connect(
                address, NetLeaseProvider::Options{});
            if (lease != nullptr && lease->tryAcquire(held_key)) {
                std::ofstream ready(readyPath(0));
                ready << "held\n";
                std::this_thread::sleep_for(std::chrono::seconds(60));
            }
        }
        ::_exit(rc);
    }

    // Child 1: an ordinary worker. It starts once the doomed child
    // holds the row, so the contention is guaranteed.
    const pid_t worker = ::fork();
    ASSERT_GE(worker, 0);
    if (worker == 0) {
        int rc = 0;
        {
            for (int i = 0; i < 2000; ++i) {
                std::ifstream ready(readyPath(0));
                if (ready.good())
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
            test::Setting lease_from(&RuntimeConfig::coordinator, address);
            Runner runner(test::tinyConfig(2), test::tinyOptions());
            DiskCache scratch(scratchPath(1));
            Exhaustive ex(runner, scratch);
            ex.setJobs(1);
            const ComboTable mine =
                ex.sweep(makePair("BLK", "TRD"), ladder);
            if (!tablesBitIdentical(ref, mine))
                rc = 2;
            std::ofstream st(statusPath(1));
            st << ex.status().simulated << "\n";
        }
        ::_exit(rc);
    }

    ASSERT_TRUE(coordinator.start().ok());

    // Kill the holder once its lease is visible over the wire.
    {
        auto observer =
            NetLeaseProvider::connect(address, NetLeaseProvider::Options{});
        ASSERT_NE(observer, nullptr);
        LeaseProvider::State s = LeaseProvider::State::Absent;
        for (int i = 0; i < 2000; ++i) {
            s = observer->peek(held_key);
            if (s == LeaseProvider::State::Active)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        ASSERT_EQ(s, LeaseProvider::State::Active);
    }
    ASSERT_EQ(::kill(doomed, SIGKILL), 0);
    int status = 0;
    EXPECT_EQ(::waitpid(doomed, &status, 0), doomed);
    EXPECT_TRUE(WIFSIGNALED(status));

    // The survivor fills the whole table (the dead worker published
    // nothing) and its bytes match the serial fill.
    EXPECT_EQ(reapWorker(worker, 1), 4u);
    coordinator.stop();
    const Coordinator::Stats stats = coordinator.stats();
    EXPECT_GE(stats.orphanedLeases, 1u);
    EXPECT_GE(stats.takeovers, 1u);

    dist.sync();
    ASSERT_TRUE(dist.compact());
    EXPECT_EQ(slurp(dist_path_), ref_bytes);
}

/**
 * A worker SIGKILLed mid-sweep (rows slowed so the kill lands while
 * work is in flight): whatever it was doing — holding leases,
 * streaming a record — the survivor completes the table and the
 * compacted store is byte-identical to a crash-free serial fill.
 */
TEST_F(DistributedSweepTest, WorkerKilledMidSweepIsRecovered)
{
    // ~100ms per row: 16 rows of work stay in flight long enough for
    // the kill below to land mid-sweep on any machine.
    RunOptions slow = test::tinyOptions();
    slow.measureCycles = 200000;
    const std::vector<std::uint32_t> ladder = {1, 2, 3, 4};

    ComboTable ref;
    const std::string ref_bytes = fillSerialReference(
        slow, ladder, ref, /*with_profiles=*/false);
    ASSERT_EQ(ref.combos.size(), 16u);

    DiskCache dist(dist_path_);
    Coordinator coordinator(dist, Coordinator::Options{});
    ASSERT_TRUE(coordinator.bind().ok());
    const std::string address = coordinator.address();

    const pid_t survivor = forkWorker(0, address, slow, ladder, ref, 1,
                                      /*with_profiles=*/false);
    const pid_t victim = forkWorker(1, address, slow, ladder, ref, 1,
                                    /*with_profiles=*/false);
    ASSERT_TRUE(coordinator.start().ok());

    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(::kill(victim, SIGKILL), 0);
    int status = 0;
    EXPECT_EQ(::waitpid(victim, &status, 0), victim);

    EXPECT_GE(reapWorker(survivor, 0), 1u);
    coordinator.stop();

    dist.sync();
    ASSERT_TRUE(dist.compact());
    EXPECT_EQ(slurp(dist_path_), ref_bytes);
}

/**
 * RunFail-injected workers over the wire: the persistently failing
 * combination is skipped by whichever worker leases it, the skip
 * marker is replicated through SKIPMARK/PEEK instead of sidecar
 * files, and the compacted store matches the injected serial run.
 */
TEST_F(DistributedSweepTest, InjectedFailuresReplicateSkipsOverTheWire)
{
    const std::vector<std::uint32_t> ladder = {1, 4};
    FaultInjector seed_injector(5);
    seed_injector.armAfter(Point::RunFail, 2, 3);

    ComboTable ref;
    const std::string ref_bytes = fillSerialReference(
        test::tinyOptions(), ladder, ref, /*with_profiles=*/false,
        &seed_injector);

    DiskCache dist(dist_path_);
    Coordinator coordinator(dist, Coordinator::Options{});
    ASSERT_TRUE(coordinator.bind().ok());
    std::vector<pid_t> kids;
    for (int c = 0; c < 2; ++c) {
        kids.push_back(forkWorker(c, coordinator.address(),
                                  test::tinyOptions(), ladder, ref, 1,
                                  /*with_profiles=*/false,
                                  &seed_injector));
    }
    ASSERT_TRUE(coordinator.start().ok());
    std::size_t sum = 0;
    for (std::size_t c = 0; c < kids.size(); ++c)
        sum += reapWorker(kids[c], static_cast<int>(c));
    coordinator.stop();

    // 3 of 4 rows succeed; the fourth is skipped, not duplicated.
    EXPECT_GE(sum, 3u);
    EXPECT_LE(sum, 6u);
    EXPECT_GE(coordinator.stats().skipsMarked, 1u);

    dist.sync();
    dist.refresh();
    EXPECT_EQ(dist.size(), 3u)
        << "the skipped combination must never be persisted";
    ASSERT_TRUE(dist.compact());
    EXPECT_EQ(slurp(dist_path_), ref_bytes);
}

/**
 * EBM_COORDINATOR outranks the same-host fabric: a cold sweep on a
 * writable scratch store leases over TCP, streams its rows into the
 * coordinator's store, and never elects a local server for the
 * scratch store.
 */
TEST_F(DistributedSweepTest, CoordinatorAddressOutranksLocalElection)
{
    DiskCache dist(dist_path_);
    Coordinator coordinator(dist, Coordinator::Options{});
    ASSERT_TRUE(coordinator.bind().ok());
    ASSERT_TRUE(coordinator.start().ok());
    test::Setting lease_from(&RuntimeConfig::coordinator,
                             coordinator.address());

    DiskCache scratch(scratchPath(0));
    auto lease = makeLeaseProvider(scratch);
    ASSERT_NE(lease, nullptr);
    EXPECT_STREQ(lease->kind(), "net");
    lease.reset();

    Runner runner(test::tinyConfig(2), test::tinyOptions());
    Exhaustive ex(runner, scratch);
    ex.setJobs(1);
    (void)ex.sweep(makePair("BLK", "TRD"), {1, 4});
    EXPECT_EQ(ex.status().simulated, 4u);
    EXPECT_EQ(scratch.leaseServer(), nullptr)
        << "a TCP-leased sweep must not elect a same-host server";
    coordinator.stop();

    dist.sync();
    dist.refresh();
    EXPECT_EQ(dist.size(), 4u) << "every row reached the coordinator";
}

} // namespace
} // namespace ebm
