/**
 * @file
 * Same-host sweep sharding, which every fill with a miss on a writable
 * store joins with no flag: the lease protocol as peers of the
 * elected local coordinator see it; who joins (a warm sweep and a
 * read-only store elect nothing); the election itself (exactly one
 * server among forked processes; a killed server leaves its peers
 * standalone and still byte-identical); liveness (a SIGKILLed peer's
 * leases are orphaned at once, a stopped peer's go stale after the
 * window); the deferred-row wait phase driven single-process (skip
 * replication, stale-lease takeover); and the full acceptance
 * scenario — N forked processes cooperatively filling one cold sweep
 * through a shared store, each producing the bit-identical table,
 * with the compacted store byte-identical to a single-process run.
 *
 * The forked suites run in their own binary: fork()/waitpid()
 * orchestration should never share a process with unrelated tests.
 */
#include <fcntl.h>
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
#include "harness/lease_provider.hpp"
#include "harness/profile_db.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

using Point = FaultInjector::Point;
using State = LeaseProvider::State;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

using std::chrono::milliseconds;

/**
 * A peer of the elected local coordinator for @p cache's store: the
 * first peer of a store elects @p cache to serve, later ones connect.
 */
std::unique_ptr<LeaseProvider>
joinPeer(DiskCache &cache)
{
    auto peer = makeLeaseProvider(cache);
    EXPECT_NE(peer, nullptr);
    return peer;
}

/** Bitwise table equality (the cross-process identity contract). */
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

class MultiprocessSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = ::testing::TempDir() + "ebm_mp_" +
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
        }
        for (int i = 0; i < 8; ++i)
            std::remove(statusPath(i).c_str());
    }

    std::string
    statusPath(int child) const
    {
        return stem_ + ".status." + std::to_string(child);
    }

    std::string stem_;
    std::string ref_path_;
    std::string shared_path_;
};

// ---------------------------------------------------------------------
// Lease protocol units, through the elected local coordinator.
// ---------------------------------------------------------------------

TEST_F(MultiprocessSweepTest, ClaimIsExclusiveUntilReleased)
{
    DiskCache host(shared_path_);
    auto lease = joinPeer(host);
    ASSERT_NE(lease, nullptr);
    EXPECT_NE(host.leaseServer(), nullptr)
        << "the store's first peer wins the election";
    EXPECT_EQ(lease->peek("row"), State::Absent);
    EXPECT_TRUE(lease->tryAcquire("row"));
    EXPECT_FALSE(lease->tryAcquire("row")) << "leases are exclusive";
    EXPECT_EQ(lease->peek("row"), State::Active);

    // A second store on the same path (another process's view) joins
    // the same coordinator instead of electing its own.
    DiskCache other(shared_path_);
    auto peer = joinPeer(other);
    ASSERT_NE(peer, nullptr);
    EXPECT_EQ(other.leaseServer(), nullptr);
    EXPECT_FALSE(peer->tryAcquire("row"));
    EXPECT_EQ(peer->peek("row"), State::Active);

    lease->release("row");
    EXPECT_EQ(peer->peek("row"), State::Absent);
    EXPECT_TRUE(peer->tryAcquire("row"));
    peer->release("row");
}

TEST_F(MultiprocessSweepTest, DistinctKeysNeverContend)
{
    DiskCache host(shared_path_);
    auto lease = joinPeer(host);
    ASSERT_NE(lease, nullptr);
    EXPECT_TRUE(lease->tryAcquire("row/a"));
    EXPECT_TRUE(lease->tryAcquire("row/b"));
    lease->release("row/a");
    lease->release("row/b");
}

TEST_F(MultiprocessSweepTest, SkipMarkerIsDurableAndExpires)
{
    // The coordinator fixes its window when elected: wide enough for
    // the checks below, short enough to wait out.
    test::Setting window(&RuntimeConfig::claimStale, milliseconds(250));
    DiskCache host(shared_path_);
    auto lease = joinPeer(host);
    auto peer = joinPeer(host);
    ASSERT_TRUE(lease != nullptr && peer != nullptr);
    ASSERT_TRUE(lease->tryAcquire("row"));
    lease->markSkipped("row");

    // The marker outlives the lease and blocks re-acquisition: every
    // cooperating process replicates the skip.
    EXPECT_EQ(lease->peek("row"), State::Skipped);
    EXPECT_EQ(peer->peek("row"), State::Skipped);
    EXPECT_FALSE(lease->tryAcquire("row"));
    EXPECT_FALSE(peer->tryAcquire("row"));

    // Past the staleness window the marker expires, so the next sweep
    // retries the row (single-process semantics: a failed
    // combination is never persisted).
    {
        std::this_thread::sleep_for(milliseconds(300));
        EXPECT_EQ(lease->peek("row"), State::Absent);
        EXPECT_TRUE(lease->tryAcquire("row"));
        lease->release("row");
    }
}

TEST_F(MultiprocessSweepTest, StaleClaimIsBrokenAndTakenOver)
{
    // A window comfortably wider than any single check below, so
    // "fresh" observations never race the clock — but short enough
    // that waiting it out keeps the test quick.
    test::Setting window(&RuntimeConfig::claimStale, milliseconds(250));
    DiskCache host(shared_path_);
    auto owner = joinPeer(host);
    auto waiter = joinPeer(host);
    ASSERT_TRUE(owner != nullptr && waiter != nullptr);
    ASSERT_TRUE(owner->tryAcquire("row"));
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        EXPECT_EQ(waiter->peek("row"), State::Stale);

        // A heartbeat revives the lease...
        owner->heartbeat("row");
        EXPECT_EQ(waiter->peek("row"), State::Active);
        EXPECT_FALSE(waiter->breakStale("row"))
            << "a fresh lease must never be broken";

        // ...and silence lets the waiter take over.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        EXPECT_TRUE(waiter->breakStale("row"));
        EXPECT_EQ(owner->peek("row"), State::Active);
        waiter->release("row");
    }
}

// ---------------------------------------------------------------------
// Who joins: a fill with a miss on a writable store, with no flag set.
// A warm fill and a read-only store elect nothing.
// ---------------------------------------------------------------------

TEST_F(MultiprocessSweepTest, WarmSweepElectsNoCoordinator)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");
    const std::vector<std::uint32_t> ladder = {1, 4};
    {
        DiskCache cold(shared_path_);
        ProfileDb profiles(runner, cold);
        for (const AppProfile &app : resolveApps(wl))
            profiles.profile(app);
        Exhaustive ex(runner, cold);
        ex.setJobs(1);
        (void)ex.sweep(wl, ladder);
        EXPECT_EQ(ex.status().simulated, 4u);
        EXPECT_NE(cold.leaseServer(), nullptr)
            << "a cold fill elects its store's coordinator, no flag set";
    }

    // The cold store's server retired with it, so a join now would
    // have to elect this cache: a null server means nothing joined.
    DiskCache warm(shared_path_);
    ProfileDb profiles(runner, warm);
    for (const AppProfile &app : resolveApps(wl))
        profiles.profile(app);
    Exhaustive ex(runner, warm);
    ex.setJobs(1);
    (void)ex.sweep(wl, ladder);
    EXPECT_EQ(ex.status().simulated, 0u);
    EXPECT_EQ(ex.status().fromCache, 4u);
    EXPECT_EQ(warm.leaseServer(), nullptr)
        << "a fully warm fill must neither connect nor bind";
}

TEST_F(MultiprocessSweepTest, ReadOnlyColdSweepElectsNothing)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    {
        std::optional<test::Setting<bool>> readonly(
            std::in_place, &RuntimeConfig::cacheReadOnly, true);
        DiskCache cache(shared_path_);
        ASSERT_TRUE(cache.readOnly());
        EXPECT_EQ(makeLeaseProvider(cache), nullptr);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        const ComboTable table = ex.sweep(makePair("BLK", "TRD"), {1, 4});
        EXPECT_EQ(ex.status().simulated, 4u);
        EXPECT_EQ(table.combos.size(), 4u);
        EXPECT_EQ(cache.leaseServer(), nullptr)
            << "a read-only store has no rows to share";

        // Nothing holds the store's name either: a writable peer that
        // joins now wins the election.
        readonly.reset();
        DiskCache writable(shared_path_);
        auto lease = joinPeer(writable);
        EXPECT_NE(writable.leaseServer(), nullptr);
    }
    EXPECT_NE(::access(shared_path_.c_str(), F_OK), 0)
        << "the read-only sweep wrote nothing";
}

// ---------------------------------------------------------------------
// Fencing epochs: a stale owner that resumes after takeover cannot
// double-release or clobber the newer epoch's lease.
// ---------------------------------------------------------------------

TEST_F(MultiprocessSweepTest, AcquireMintsMonotonicEpochs)
{
    DiskCache host(shared_path_);
    auto lease = joinPeer(host);
    auto peer = joinPeer(host);
    ASSERT_TRUE(lease != nullptr && peer != nullptr);
    ASSERT_TRUE(lease->tryAcquire("row"));
    EXPECT_EQ(lease->ownedEpoch("row"), 1u);
    EXPECT_TRUE(lease->release("row"));
    EXPECT_EQ(lease->ownedEpoch("row"), 0u) << "released = not owned";

    ASSERT_TRUE(lease->tryAcquire("row"));
    EXPECT_EQ(lease->ownedEpoch("row"), 2u)
        << "every acquisition bumps the key's epoch";
    EXPECT_TRUE(lease->release("row"));

    // The counter is the coordinator's, shared by every peer.
    ASSERT_TRUE(peer->tryAcquire("row"));
    EXPECT_EQ(peer->ownedEpoch("row"), 3u);
    EXPECT_TRUE(peer->release("row"));
}

TEST_F(MultiprocessSweepTest, FencedOwnerCannotReleaseOrSkip)
{
    test::Setting window(&RuntimeConfig::claimStale, milliseconds(100));
    DiskCache host(shared_path_);
    auto owner = joinPeer(host);
    auto waiter = joinPeer(host);
    ASSERT_TRUE(owner != nullptr && waiter != nullptr);
    ASSERT_TRUE(owner->tryAcquire("row"));
    EXPECT_EQ(owner->ownedEpoch("row"), 1u);

    // The owner stalls past the staleness window; a waiter takes the
    // row over under a bumped epoch.
    std::this_thread::sleep_for(milliseconds(150));
    ASSERT_TRUE(waiter->breakStale("row"));
    EXPECT_EQ(waiter->ownedEpoch("row"), 2u);

    // The resumed stale owner is fenced on every verb: heartbeat
    // refuses to freshen the newer lease, release leaves it in place,
    // markSkipped writes no marker.
    EXPECT_FALSE(owner->heartbeat("row"));
    EXPECT_FALSE(owner->release("row"));
    EXPECT_EQ(waiter->peek("row"), State::Active)
        << "the newer lease survives the stale owner's release";
    ASSERT_TRUE(owner->tryAcquire("other"));
    EXPECT_FALSE(owner->markSkipped("row"));
    EXPECT_NE(waiter->peek("row"), State::Skipped)
        << "a fenced owner must not skip the new owner's row";

    // The rightful owner's verbs still work.
    EXPECT_TRUE(waiter->heartbeat("row"));
    EXPECT_TRUE(waiter->release("row"));
    EXPECT_TRUE(owner->release("other"));
}

TEST_F(MultiprocessSweepTest, TakeoverEpochReachesTheStoreHeader)
{
    // A takeover (epoch 2) noted on the cache is stamped into the
    // header by the next append; compaction re-canonicalizes to 0.
    test::Setting window(&RuntimeConfig::claimStale, milliseconds(50));
    DiskCache cache(shared_path_);
    auto dead = joinPeer(cache);
    auto taker = joinPeer(cache);
    ASSERT_TRUE(dead != nullptr && taker != nullptr);
    ASSERT_TRUE(dead->tryAcquire("row"));
    std::this_thread::sleep_for(milliseconds(80));
    ASSERT_TRUE(taker->breakStale("row"));

    cache.noteFencingEpoch(taker->ownedEpoch("row"));
    cache.put("row", {1.0});
    ASSERT_TRUE(taker->publish("row"));
    EXPECT_TRUE(taker->release("row"));

    {
        DiskCache reopened(shared_path_);
        EXPECT_EQ(reopened.loadReport().fencingEpoch, 2u);
        ASSERT_TRUE(reopened.compact());
    }
    DiskCache compacted(shared_path_);
    EXPECT_EQ(compacted.loadReport().fencingEpoch, 0u);
}

// ---------------------------------------------------------------------
// In-run heartbeat: a row longer than the staleness window must not
// look abandoned (the long-row staleness hole).
// ---------------------------------------------------------------------

TEST_F(MultiprocessSweepTest, HeartbeaterKeepsLongRowFreshAtTinyWindow)
{
    test::Setting window(&RuntimeConfig::claimStale, milliseconds(200));
    DiskCache host(shared_path_);
    auto owner = joinPeer(host);
    auto peer = joinPeer(host);
    ASSERT_TRUE(owner != nullptr && peer != nullptr);
    ASSERT_TRUE(owner->tryAcquire("long-row"));
    {
        // The heartbeater spans a "run" three windows long; the peer
        // polls throughout and must never see the lease go stale.
        LeaseHeartbeater beat(owner.get(), "long-row");
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(650);
        while (std::chrono::steady_clock::now() < until) {
            EXPECT_NE(peer->peek("long-row"), State::Stale)
                << "in-run heartbeat lost the lease mid-row";
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        EXPECT_FALSE(beat.fenced());
    }

    // Control: with the heartbeater gone, the same silence makes the
    // lease stale — proving the poll above was a real observation.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(peer->peek("long-row"), State::Stale);
    EXPECT_TRUE(owner->release("long-row"));
}

/**
 * The regression scenario end-to-end: two cooperating processes, a
 * 200 ms staleness window, and rows slowed well past the window. The
 * deferring process must wait for the live owner (kept fresh by the
 * in-run heartbeat) instead of "taking over" rows that are merely
 * long — so each row is simulated exactly once across both processes.
 */
TEST_F(MultiprocessSweepTest, SlowRowsAtTinyWindowAreNotTakenOver)
{
    test::Setting window(&RuntimeConfig::claimStale, milliseconds(200));

    // Slow the simulation so one row comfortably exceeds the window
    // (the tiny config runs ~7k cycles in single-digit milliseconds;
    // 100x that is hundreds of milliseconds per row).
    RunOptions slow = test::tinyOptions();
    slow.warmupCycles = 1000;
    slow.measureCycles = 700000;

    const std::vector<std::uint32_t> ladder = {2};
    std::vector<pid_t> kids;
    for (int c = 0; c < 2; ++c) {
        kids.push_back(test::forkPeer([&] {
            Runner runner(test::tinyConfig(2), slow);
            DiskCache cache(shared_path_);
            Exhaustive ex(runner, cache);
            ex.setJobs(1);
            const ComboTable t = ex.sweep(makePair("BLK", "TRD"), ladder);
            std::ofstream st(statusPath(c));
            st << ex.status().simulated << "\n";
            return t.combos.size() != 1 || t.isSkipped(0) ? 2 : 0;
        }));
        ASSERT_GE(kids.back(), 0);
    }

    std::size_t total_simulated = 0;
    for (std::size_t c = 0; c < kids.size(); ++c) {
        EXPECT_TRUE(test::exitedZero(test::reapPeer(kids[c])))
            << "child " << c;
        std::ifstream st(statusPath(static_cast<int>(c)));
        std::size_t n = 0;
        st >> n;
        total_simulated += n;
    }
    EXPECT_EQ(total_simulated, 1u)
        << "a long row was taken over from its live owner";
}

// ---------------------------------------------------------------------
// Wait-phase behavior, driven deterministically in one process.
// ---------------------------------------------------------------------

/**
 * A peer's skip marker is replicated: the leased sweep defers the
 * leased row, sees the marker, and records the same
 * skipped row a single process would after exhausting retries.
 */
TEST_F(MultiprocessSweepTest, PeerSkipMarkerIsReplicated)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");

    DiskCache peer_cache(shared_path_);
    auto peer = joinPeer(peer_cache);
    ASSERT_NE(peer, nullptr);
    const std::string key = runner.comboKey(wl.name, {4, 1});
    ASSERT_TRUE(peer->tryAcquire(key));
    peer->markSkipped(key);

    DiskCache cache(shared_path_);
    Exhaustive ex(runner, cache);
    ex.setJobs(1);
    const ComboTable table = ex.sweep(wl, {1, 4});

    EXPECT_EQ(ex.status().simulated, 3u);
    EXPECT_EQ(ex.status().skipped, 1u);
    EXPECT_EQ(ex.status().fromPeers, 0u);
    ASSERT_EQ(table.combos.size(), 4u);
    for (std::size_t row = 0; row < table.combos.size(); ++row) {
        EXPECT_EQ(table.isSkipped(row),
                  table.combos[row] == TlpCombo({4, 1}))
            << "row " << row;
    }
}

/**
 * A lease whose owner went silent (no heartbeat) is taken over: the
 * sweep defers the row, waits out the staleness window, breaks the
 * lease, and simulates the row itself — no gap in the table.
 */
TEST_F(MultiprocessSweepTest, StaleClaimedRowIsTakenOverBySweep)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");

    test::Setting window(&RuntimeConfig::claimStale, milliseconds(1));
    DiskCache dead_cache(shared_path_);
    auto dead = joinPeer(dead_cache);
    ASSERT_NE(dead, nullptr);
    ASSERT_TRUE(dead->tryAcquire(runner.comboKey(wl.name, {4, 4})));

    DiskCache cache(shared_path_);
    Exhaustive ex(runner, cache);
    ex.setJobs(1);
    const ComboTable table = ex.sweep(wl, {1, 4});

    EXPECT_EQ(ex.status().simulated, 4u);
    EXPECT_EQ(ex.status().skipped, 0u);
    ASSERT_EQ(table.combos.size(), 4u);
    for (std::size_t row = 0; row < table.combos.size(); ++row)
        EXPECT_FALSE(table.isSkipped(row)) << "row " << row;

    // A sweep of the same ladder on its own store is bit-identical.
    DiskCache ref_cache(ref_path_);
    Exhaustive ref(runner, ref_cache);
    ref.setJobs(1);
    EXPECT_TRUE(tablesBitIdentical(ref.sweep(wl, {1, 4}), table));
}

// ---------------------------------------------------------------------
// Liveness: a dead peer's leases are orphaned when its connection
// drops; a hung peer's go stale after the window.
// ---------------------------------------------------------------------

/**
 * A peer SIGKILLed while it holds a lease: its connection drops, the
 * coordinator orphans the lease at once, and the surviving peer
 * finishes the row long before a staleness window could expire. The
 * table and the compacted store are the serial fill's.
 */
TEST_F(MultiprocessSweepTest, SigkilledPeersRowsAreFinishedBySurvivor)
{
    const std::vector<std::uint32_t> ladder = {1, 4};
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");

    ComboTable ref;
    std::string ref_bytes;
    {
        DiskCache cache(ref_path_);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        ref = ex.sweep(wl, ladder);
        ASSERT_TRUE(cache.compact());
        ref_bytes = slurp(ref_path_);
    }

    // A window far longer than the test: only the orphaning can free
    // the dead peer's lease in time.
    test::Setting window(&RuntimeConfig::claimStale, milliseconds(60000));
    int go[2];
    ASSERT_EQ(::pipe(go), 0);
    // Forked before this process elects, so the peer inherits no
    // server thread and no connection.
    const pid_t victim = test::forkPeer([&] {
        ::close(go[1]);
        char byte = 0;
        if (::read(go[0], &byte, 1) != 1)
            return 3;
        // Every crash draw fires: the peer dies holding the lease of
        // the first row it wins.
        FaultInjector fi(7);
        fi.armAfter(Point::CrashClaimHeld, 0, 64);
        RunOptions opts = test::tinyOptions();
        opts.faultInjector = &fi;
        Runner doomed(test::tinyConfig(2), opts);
        DiskCache cache(shared_path_);
        Exhaustive ex(doomed, cache);
        ex.setJobs(1);
        (void)ex.sweep(wl, ladder);
        return 4;
    });
    ASSERT_GE(victim, 0);
    ::close(go[0]);

    DiskCache cache(shared_path_);
    auto host = joinPeer(cache);
    ASSERT_NE(cache.leaseServer(), nullptr);
    char byte = 1;
    ASSERT_EQ(::write(go[1], &byte, 1), 1);
    ::close(go[1]);
    const int status = test::reapPeer(victim);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the peer must die at its crash point, lease held";

    const auto t0 = std::chrono::steady_clock::now();
    Exhaustive ex(runner, cache);
    ex.setJobs(1);
    const ComboTable table = ex.sweep(wl, ladder);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(30))
        << "the dead peer's lease waited out the staleness window";
    EXPECT_EQ(ex.status().simulated, 4u);
    EXPECT_EQ(ex.status().skipped, 0u);
    EXPECT_TRUE(tablesBitIdentical(ref, table));
    EXPECT_GE(cache.leaseServer()->stats().orphanedLeases, 1u);

    host.reset();
    ASSERT_TRUE(cache.compact());
    EXPECT_EQ(slurp(shared_path_), ref_bytes);
}

/**
 * A peer that hangs (SIGSTOP: alive and connected, but silent) orphans
 * nothing; its lease goes stale after the window and the sweep takes
 * the row over, with no table gap and no process killed to get there.
 */
TEST_F(MultiprocessSweepTest, StoppedPeersLeaseIsTakenOverAfterTheWindow)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");
    const std::string key = runner.comboKey(wl.name, {4, 4});
    test::Setting window(&RuntimeConfig::claimStale, milliseconds(300));

    int go[2];
    int held[2];
    ASSERT_EQ(::pipe(go), 0);
    ASSERT_EQ(::pipe(held), 0);
    // Forked before this process elects (see above).
    const pid_t hung = test::forkPeer([&] {
        ::close(go[1]);
        ::close(held[0]);
        char byte = 0;
        if (::read(go[0], &byte, 1) != 1)
            return 3;
        DiskCache cache(shared_path_);
        auto lease = makeLeaseProvider(cache);
        if (lease == nullptr || cache.leaseServer() != nullptr ||
            !lease->tryAcquire(key))
            return 4;
        (void)!::write(held[1], &byte, 1);
        ::raise(SIGSTOP); // Hang holding the lease, connection open.
        return 5;
    });
    ASSERT_GE(hung, 0);
    ::close(go[0]);
    ::close(held[1]);

    DiskCache cache(shared_path_);
    auto host = joinPeer(cache);
    ASSERT_NE(cache.leaseServer(), nullptr);
    char byte = 1;
    ASSERT_EQ(::write(go[1], &byte, 1), 1);
    ASSERT_EQ(::read(held[0], &byte, 1), 1)
        << "the peer never leased its row";
    int status = 0;
    ASSERT_EQ(::waitpid(hung, &status, WUNTRACED), hung);
    ASSERT_TRUE(WIFSTOPPED(status));

    Exhaustive ex(runner, cache);
    ex.setJobs(1);
    const ComboTable table = ex.sweep(wl, {1, 4});
    EXPECT_EQ(ex.status().simulated, 4u);
    EXPECT_EQ(ex.status().skipped, 0u);
    const Coordinator::Stats stats = cache.leaseServer()->stats();
    EXPECT_GE(stats.takeovers, 1u);
    EXPECT_EQ(stats.orphanedLeases, 0u)
        << "the window, not a disconnect, must have freed the row";

    ASSERT_EQ(::kill(hung, SIGKILL), 0);
    status = test::reapPeer(hung);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the peer was still stopped when the sweep finished";
    ::close(go[1]);
    ::close(held[0]);

    DiskCache ref_cache(ref_path_);
    Exhaustive ref(runner, ref_cache);
    ref.setJobs(1);
    EXPECT_TRUE(tablesBitIdentical(ref.sweep(wl, {1, 4}), table));
}

// ---------------------------------------------------------------------
// The forked acceptance scenario.
// ---------------------------------------------------------------------

/**
 * Fork @p num_procs peers that cooperatively run one cold sweep
 * through @p shared_path at @p jobs worker threads each, verifying
 * every peer's table against @p ref inside the peer. @return the
 * peers' simulated-row counts.
 */
std::vector<std::size_t>
runShardedChildren(int num_procs, std::uint32_t jobs_count,
                   const std::string &shared_path,
                   const std::string &status_stem,
                   const ComboTable &ref,
                   const std::vector<std::uint32_t> &ladder,
                   const FaultInjector *armed_injector)
{
    std::vector<pid_t> kids;
    for (int c = 0; c < num_procs; ++c) {
        kids.push_back(test::forkPeer([&] {
            RunOptions opts = test::tinyOptions();
            std::optional<FaultInjector> fi;
            if (armed_injector != nullptr) {
                // Same seed in every process: the pre-drawn fault
                // schedule is identical everywhere.
                fi.emplace(*armed_injector);
                opts.faultInjector = &*fi;
            }
            Runner runner(test::tinyConfig(2), opts);
            DiskCache cache(shared_path);
            Exhaustive ex(runner, cache);
            ex.setJobs(jobs_count);
            const ComboTable mine =
                ex.sweep(makePair("BLK", "TRD"), ladder);
            std::ofstream st(status_stem + ".status." +
                             std::to_string(c));
            st << ex.status().simulated << "\n";
            return tablesBitIdentical(ref, mine) ? 0 : 2;
        }));
        EXPECT_GE(kids.back(), 0);
    }

    std::vector<std::size_t> simulated;
    for (std::size_t c = 0; c < kids.size(); ++c) {
        EXPECT_TRUE(test::exitedZero(test::reapPeer(kids[c])))
            << "child " << c
            << " saw a table differing from the single-process one";
        std::ifstream st(status_stem + ".status." + std::to_string(c));
        std::size_t n = 0;
        st >> n;
        simulated.push_back(n);
    }
    return simulated;
}

/**
 * The acceptance test: {2, 4} cooperating processes × EBM_JOBS
 * {1, 8} fill one cold paper-shaped 64-combination sweep through a
 * shared store. Every process's table is bit-identical to the
 * single-process table, the union of their work covers the sweep, and
 * the compacted shared store is byte-identical to the single-process
 * store.
 */
TEST_F(MultiprocessSweepTest, ForkedColdSweepMatchesSingleProcess)
{
    const std::vector<std::uint32_t> ladder = {1, 2, 3, 4, 5, 6, 7, 8};
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");

    // The single-process reference, compacted.
    ComboTable ref;
    std::string ref_bytes;
    {
        DiskCache cache(ref_path_);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        ref = ex.sweep(wl, ladder);
        ASSERT_EQ(ex.status().simulated, 64u);
        ASSERT_TRUE(cache.compact());
        ref_bytes = slurp(ref_path_);
        ASSERT_FALSE(ref_bytes.empty());
    }

    const struct
    {
        int procs;
        std::uint32_t jobs;
    } grid[] = {{2, 1}, {2, 8}, {4, 1}};
    for (const auto &cfg : grid) {
        std::remove(shared_path_.c_str());

        const std::vector<std::size_t> simulated = runShardedChildren(
            cfg.procs, cfg.jobs, shared_path_, stem_, ref, ladder,
            nullptr);

        // Cold store: every row was simulated by some process, and
        // rows are not re-simulated barring a benign takeover race.
        std::size_t sum = 0;
        for (const std::size_t n : simulated)
            sum += n;
        EXPECT_GE(sum, 64u) << cfg.procs << "p/" << cfg.jobs << "j";
        EXPECT_LE(sum, 72u)
            << cfg.procs << "p/" << cfg.jobs
            << "j: cooperating processes re-simulated most rows";

        // The shared store, compacted, is the single-process bytes.
        DiskCache merged(shared_path_);
        EXPECT_FALSE(merged.loadReport().quarantined);
        EXPECT_EQ(merged.size(), 64u);
        ASSERT_TRUE(merged.compact());
        EXPECT_EQ(slurp(shared_path_), ref_bytes)
            << cfg.procs << "p/" << cfg.jobs << "j";
        // Leases live in the coordinator: no claims directory, no
        // sidecar of any kind is left beside the store.
        EXPECT_NE(::access((shared_path_ + ".claims").c_str(), F_OK), 0);
        EXPECT_TRUE(test::filesBeside(shared_path_).empty());
    }
}

/**
 * The same acceptance scenario with the RunFail injector armed: the
 * persistently failing combination is skipped by whichever process
 * leases it, the skip marker is replicated everywhere, and the tables
 * still match the single-process injected run.
 */
TEST_F(MultiprocessSweepTest, ForkedSweepWithInjectedFailuresMatches)
{
    const std::vector<std::uint32_t> ladder = {1, 4};
    FaultInjector seed_injector(5);
    seed_injector.armAfter(Point::RunFail, 2, 3);

    // Single-process reference with the identical injector state.
    ComboTable ref;
    std::string ref_bytes;
    {
        RunOptions opts = test::tinyOptions();
        FaultInjector fi(seed_injector);
        opts.faultInjector = &fi;
        Runner runner(test::tinyConfig(2), opts);
        DiskCache cache(ref_path_);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        ref = ex.sweep(makePair("BLK", "TRD"), ladder);
        EXPECT_EQ(ex.status().retried, 2u);
        EXPECT_EQ(ex.status().skipped, 1u);
        ASSERT_TRUE(cache.compact());
        ref_bytes = slurp(ref_path_);
    }

    const std::vector<std::size_t> simulated = runShardedChildren(
        2, 1, shared_path_, stem_, ref, ladder, &seed_injector);

    // 3 of 4 rows succeed; the fourth is skipped, not duplicated.
    std::size_t sum = 0;
    for (const std::size_t n : simulated)
        sum += n;
    EXPECT_GE(sum, 3u);
    EXPECT_LE(sum, 6u);

    DiskCache merged(shared_path_);
    EXPECT_EQ(merged.size(), 3u)
        << "the skipped combination must never be persisted";
    ASSERT_TRUE(merged.compact());
    EXPECT_EQ(slurp(shared_path_), ref_bytes);
}

/**
 * Two forked processes run the profile-then-sweep loop through the
 * batch calls on one shared store: one ProfileDb::profile batch over
 * three apps, then one Exhaustive::sweep batch over two workloads.
 * Each peer's profiles and tables equal a single process's
 * one-at-a-time calls, and the compacted shared store equals its
 * store byte for byte.
 */
TEST_F(MultiprocessSweepTest, ForkedPeersShareBatchedProfileThenSweep)
{
    const std::vector<std::uint32_t> ladder = {1, 4};
    const std::vector<Workload> wls = {makePair("BLK", "TRD"),
                                       makePair("BFS", "TRD")};
    const std::vector<AppProfile> apps = {findApp("BLK"), findApp("TRD"),
                                          findApp("BFS")};
    Runner runner(test::tinyConfig(2), test::tinyOptions());

    std::vector<AppAloneProfile> ref_profiles;
    std::vector<ComboTable> ref_tables;
    std::string ref_bytes;
    {
        DiskCache cache(ref_path_);
        ProfileDb profiles(runner, cache);
        profiles.setJobs(1);
        for (const AppProfile &app : apps)
            ref_profiles.push_back(profiles.profile(app));
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        for (const Workload &wl : wls)
            ref_tables.push_back(ex.sweep(wl, ladder));
        ASSERT_TRUE(cache.compact());
        ref_bytes = slurp(ref_path_);
    }

    std::vector<pid_t> kids;
    for (int c = 0; c < 2; ++c) {
        kids.push_back(test::forkPeer([&] {
            DiskCache cache(shared_path_);
            ProfileDb profiles(runner, cache);
            profiles.setJobs(2);
            const std::vector<AppAloneProfile> mine_profiles =
                profiles.profile(apps);
            Exhaustive ex(runner, cache);
            ex.setJobs(2);
            const std::vector<ComboTable> mine = ex.sweep(wls, ladder);
            for (std::size_t i = 0; i < apps.size(); ++i) {
                const AppAloneProfile &a = mine_profiles[i];
                const AppAloneProfile &b = ref_profiles[i];
                if (a.bestTlp != b.bestTlp ||
                    std::memcmp(&a.ipcAtBest, &b.ipcAtBest,
                                sizeof(double)) != 0 ||
                    std::memcmp(&a.ebAtBest, &b.ebAtBest,
                                sizeof(double)) != 0)
                    return 2;
            }
            for (std::size_t w = 0; w < wls.size(); ++w) {
                if (!tablesBitIdentical(ref_tables[w], mine[w]))
                    return 3;
            }
            return 0;
        }));
        EXPECT_GE(kids.back(), 0);
    }
    for (std::size_t c = 0; c < kids.size(); ++c) {
        EXPECT_TRUE(test::exitedZero(test::reapPeer(kids[c])))
            << "peer " << c
            << " saw a profile or table differing from the reference";
    }

    DiskCache merged(shared_path_);
    EXPECT_FALSE(merged.loadReport().quarantined);
    EXPECT_EQ(merged.size(), 3u * 8u + 2u * 4u);
    ASSERT_TRUE(merged.compact());
    EXPECT_EQ(slurp(shared_path_), ref_bytes);
}

// ---------------------------------------------------------------------
// The election: one server per store among forked processes, and a
// killed server costs duplicate work, never a wrong byte.
// ---------------------------------------------------------------------

/**
 * Two forked processes join one store's fabric at the same time:
 * exactly one wins bind() and serves, and the server's Coordinator
 * counts both connections — its own fills' and the peer's.
 */
TEST_F(MultiprocessSweepTest, ForkedPeersElectExactlyOneServer)
{
    int ready[2];
    int go[2];
    ASSERT_EQ(::pipe(ready), 0);
    ASSERT_EQ(::pipe(go), 0);
    std::vector<pid_t> kids;
    for (int c = 0; c < 2; ++c) {
        kids.push_back(test::forkPeer([&] {
            ::close(ready[0]);
            ::close(go[1]);
            DiskCache cache(shared_path_);
            auto lease = makeLeaseProvider(cache);
            // Report only once both peers are connected: the parent
            // closes `go` after reading both ready bytes.
            char byte = 1;
            (void)!::write(ready[1], &byte, 1);
            (void)!::read(go[0], &byte, 1);
            const Coordinator *server = cache.leaseServer();
            std::ofstream st(statusPath(c));
            st << (server != nullptr ? 1 : 0) << " "
               << (server != nullptr ? server->stats().connections : 0)
               << "\n";
            return lease != nullptr ? 0 : 2;
        }));
        ASSERT_GE(kids.back(), 0);
    }
    ::close(ready[1]);
    ::close(go[0]);
    for (std::size_t c = 0; c < kids.size(); ++c) {
        char byte = 0;
        EXPECT_EQ(::read(ready[0], &byte, 1), 1);
    }
    ::close(go[1]);
    ::close(ready[0]);

    int servers = 0;
    std::uint64_t server_connections = 0;
    for (std::size_t c = 0; c < kids.size(); ++c) {
        EXPECT_TRUE(test::exitedZero(test::reapPeer(kids[c])))
            << "child " << c;
        std::ifstream st(statusPath(static_cast<int>(c)));
        int is_server = 0;
        std::uint64_t connections = 0;
        st >> is_server >> connections;
        servers += is_server;
        if (is_server != 0)
            server_connections = connections;
    }
    EXPECT_EQ(servers, 1) << "exactly one process serves the store";
    EXPECT_EQ(server_connections, 2u)
        << "the server counts its own connection and the peer's";
}

/**
 * SIGKILL the serving process mid-fill. Its peer loses the
 * connection, degrades to standalone, and still finishes: its table
 * is bit-identical to a serial fill's, and the compacted store equals
 * the serial fill's bytes.
 */
TEST_F(MultiprocessSweepTest, KilledServerLeavesTheSurvivorBitIdentical)
{
    // Rows long enough that the server is still filling when it dies.
    RunOptions slow = test::tinyOptions();
    slow.measureCycles = 60000;
    const std::vector<std::uint32_t> ladder = {1, 2, 4};
    Runner runner(test::tinyConfig(2), slow);
    const Workload wl = makePair("BLK", "TRD");

    ComboTable ref;
    std::string ref_bytes;
    {
        DiskCache cache(ref_path_);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        ref = ex.sweep(wl, ladder);
        ASSERT_TRUE(cache.compact());
        ref_bytes = slurp(ref_path_);
    }

    int elected[2];
    int joined[2];
    ASSERT_EQ(::pipe(elected), 0);
    ASSERT_EQ(::pipe(joined), 0);

    const pid_t server = test::forkPeer([&] {
        DiskCache cache(shared_path_);
        auto hold = makeLeaseProvider(cache);
        if (hold == nullptr || cache.leaseServer() == nullptr)
            return 3;
        char byte = 1;
        (void)!::write(elected[1], &byte, 1);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        (void)ex.sweep(wl, ladder);
        // Exit without retiring the server, so a server that finished
        // is never mistaken for one killed mid-fill.
        ::_exit(0);
        return 0;
    });
    ASSERT_GE(server, 0);
    char byte = 0;
    ASSERT_EQ(::read(elected[0], &byte, 1), 1);

    const pid_t survivor = test::forkPeer([&] {
        DiskCache cache(shared_path_);
        auto probe = makeLeaseProvider(cache);
        if (probe == nullptr || cache.leaseServer() != nullptr)
            return 3; // Must have joined the server, not elected.
        probe.reset();
        (void)!::write(joined[1], &byte, 1);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        return tablesBitIdentical(ref, ex.sweep(wl, ladder)) ? 0 : 2;
    });
    ASSERT_GE(survivor, 0);
    ASSERT_EQ(::read(joined[0], &byte, 1), 1);

    // Kill the server once it has made a row durable: mid-fill.
    for (int i = 0; i < 2000; ++i) {
        if (DiskCache(shared_path_).size() > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(::kill(server, SIGKILL), 0);
    int status = test::reapPeer(server);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the server finished before it could be killed mid-fill";

    status = test::reapPeer(survivor);
    EXPECT_TRUE(test::exitedZero(status))
        << "survivor exit " << WEXITSTATUS(status);
    for (int fd : {elected[0], elected[1], joined[0], joined[1]})
        ::close(fd);

    DiskCache merged(shared_path_);
    EXPECT_EQ(merged.size(), ref.combos.size());
    ASSERT_TRUE(merged.compact());
    EXPECT_EQ(slurp(shared_path_), ref_bytes);
}

// ---------------------------------------------------------------------
// Exit-time compaction: processes that compact one store at the same
// moment serialize on its lock.
// ---------------------------------------------------------------------

/**
 * Two forked children each append their share of the rows, then
 * compact the same store at once, twenty times over. Every round must
 * leave the bytes a serial fill compacts to, and neither child may
 * warn (a lost rename, a peer's half-written temp file, or a scan
 * from a stale offset all print one).
 */
TEST_F(MultiprocessSweepTest, ConcurrentCompactionsLeaveTheCanonicalStore)
{
    constexpr int kRows = 40;
    const auto keyOf = [](int i) { return "row/" + std::to_string(i); };
    const auto valuesOf = [](int i) {
        return std::vector<double>{i * 1.0, i + 0.5};
    };
    std::string expected;
    {
        DiskCache serial(ref_path_);
        for (int i = 0; i < kRows; ++i)
            serial.put(keyOf(i), valuesOf(i));
        ASSERT_TRUE(serial.compact());
        expected = slurp(ref_path_);
    }

    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        removeAll();
        {
            // A quarter of the rows already on disk, appended out of
            // key order.
            DiskCache seed(shared_path_);
            for (int i = kRows / 4 - 1; i >= 0; --i)
                seed.put(keyOf(i), valuesOf(i));
            seed.sync();
        }
        int ready[2];
        int go[2];
        ASSERT_EQ(::pipe(ready), 0);
        ASSERT_EQ(::pipe(go), 0);
        std::vector<pid_t> kids;
        for (int c = 0; c < 2; ++c) {
            kids.push_back(test::forkPeer([&, c] {
                const int err = ::open(statusPath(c).c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
                if (err < 0 || ::dup2(err, STDERR_FILENO) < 0)
                    return 3;
                DiskCache cache(shared_path_);
                for (int i = kRows / 4 + c; i < kRows; i += 2)
                    cache.put(keyOf(i), valuesOf(i));
                cache.sync();
                char byte = 'r';
                if (::write(ready[1], &byte, 1) != 1 ||
                    ::read(go[0], &byte, 1) != 1)
                    return 4;
                return cache.compact() ? 0 : 1;
            }));
        }
        char bytes[2];
        ASSERT_EQ(::read(ready[0], bytes, 1), 1);
        ASSERT_EQ(::read(ready[0], bytes + 1, 1), 1);
        ASSERT_EQ(::write(go[1], "gg", 2), 2);
        for (const pid_t kid : kids)
            EXPECT_TRUE(test::exitedZero(test::reapPeer(kid)));
        for (int fd : {ready[0], ready[1], go[0], go[1]})
            ::close(fd);
        for (int c = 0; c < 2; ++c)
            EXPECT_EQ(slurp(statusPath(c)), "") << "child " << c;
        EXPECT_EQ(slurp(shared_path_), expected);
        EXPECT_NE(::access((shared_path_ + ".tmp").c_str(), F_OK), 0)
            << "no temp file left behind";
    }
}

} // namespace
} // namespace ebm
