/**
 * @file
 * The lease fabric in one process: a Coordinator over a temp store,
 * served on the store's abstract AF_UNIX name, with NetLeaseProvider
 * clients joining it through joinLocal() as a sweep's peers do.
 * Covers the lease verbs (exclusivity, epochs, skip replication),
 * wire-level fencing (stale takeover, fenced heartbeat/release), the
 * disconnect-orphans-leases rule, handshake rejection of incompatible
 * builds, malformed replies degrading to standalone, and the RPC
 * latency receipts. Forked multi-process acceptance lives in
 * test_multiprocess and test_chaos.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/frame_server.hpp"
#include "common/net.hpp"
#include "common/stats.hpp"
#include "common/wire.hpp"
#include "harness/coordinator.hpp"
#include "harness/disk_cache.hpp"
#include "harness/lease_net.hpp"
#include "harness/lease_provider.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

using State = LeaseProvider::State;

/** A coordinator stand-in on a store's socket name that answers
 * HELLO and the ACQ/BREAK grants with scripted replies and records
 * every request. */
class FakeCoordinator
{
  public:
    explicit FakeCoordinator(const std::string &store_path)
    {
        auto listener = netListenUnix(localSocketName(store_path));
        EXPECT_TRUE(listener.ok());
        const Status st = server_.start(std::move(listener.value()),
                                        /*same_user_only=*/false);
        EXPECT_TRUE(st.ok());
    }

    void
    script(std::string hello, std::string grant)
    {
        std::lock_guard<std::mutex> lk(mu_);
        hello_ = std::move(hello);
        grant_ = std::move(grant);
    }

    /** Requests seen so far whose verb is @p verb. */
    std::size_t
    seen(const std::string &verb) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::size_t n = 0;
        for (const std::string &r : requests_)
            n += r.rfind(verb + " ", 0) == 0 ? 1 : 0;
        return n;
    }

  private:
    std::string
    answer(const std::string &request)
    {
        std::lock_guard<std::mutex> lk(mu_);
        requests_.push_back(request);
        if (request.rfind("HELLO ", 0) == 0)
            return hello_;
        if (request.rfind("ACQ ", 0) == 0 ||
            request.rfind("BREAK ", 0) == 0)
            return grant_;
        return "OK";
    }

    mutable std::mutex mu_;
    std::string hello_ = "OK 1000";
    std::string grant_ = "OK 1";
    std::vector<std::string> requests_;
    LatencyHistogram latency_;
    FrameServer server_{[this](const std::string &request,
                               std::uint64_t) { return answer(request); },
                        latency_};
};

class LeaseNetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "ebm_net_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".cache";
        std::remove(path_.c_str());
        cache_ = std::make_unique<DiskCache>(path_);
    }

    void
    TearDown() override
    {
        coord_.reset();
        cache_.reset();
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }

    /** Start a coordinator on the store's socket name, as the
     * election's winner would. */
    Coordinator &
    startCoordinator(std::chrono::milliseconds stale =
                         std::chrono::milliseconds(0))
    {
        Coordinator::Options opts;
        opts.staleThreshold = stale;
        coord_ = std::make_unique<Coordinator>(*cache_, opts);
        auto listener = netListenUnix(localSocketName(path_));
        EXPECT_TRUE(listener.ok());
        const Status st = coord_->start(std::move(listener.value()));
        EXPECT_TRUE(st.ok()) << st.error().message;
        return *coord_;
    }

    /** A peer joining the store's coordinator. */
    std::unique_ptr<NetLeaseProvider>
    connectWorker()
    {
        auto p = NetLeaseProvider::joinLocal(*cache_);
        EXPECT_NE(p, nullptr);
        return p;
    }

    /** A raw protocol connection to the store's coordinator. */
    Result<UniqueFd>
    connectRaw() const
    {
        return netConnectUnix(localSocketName(path_));
    }

    std::string path_;
    std::unique_ptr<DiskCache> cache_;
    std::unique_ptr<Coordinator> coord_;
};

// ---------------------------------------------------------------------
// Lease verbs over the wire.
// ---------------------------------------------------------------------

TEST_F(LeaseNetTest, LeaseIsExclusiveUntilReleased)
{
    startCoordinator();
    auto a = connectWorker();
    auto b = connectWorker();

    EXPECT_EQ(a->peek("row"), State::Absent);
    EXPECT_TRUE(a->tryAcquire("row"));
    EXPECT_EQ(a->ownedEpoch("row"), 1u);
    EXPECT_FALSE(a->tryAcquire("row")) << "leases are exclusive";
    EXPECT_FALSE(b->tryAcquire("row"));
    EXPECT_EQ(b->peek("row"), State::Active);
    EXPECT_TRUE(a->heartbeat("row"));

    EXPECT_TRUE(a->release("row"));
    EXPECT_EQ(a->ownedEpoch("row"), 0u) << "released = not owned";
    EXPECT_EQ(b->peek("row"), State::Absent);
    EXPECT_TRUE(b->tryAcquire("row"));
    EXPECT_EQ(b->ownedEpoch("row"), 2u)
        << "every acquisition bumps the per-key epoch";
    EXPECT_TRUE(b->release("row"));

    const auto stats = coord_->stats();
    EXPECT_EQ(stats.acquiresGranted, 2u);
    EXPECT_GE(stats.acquiresDenied, 2u);
}

TEST_F(LeaseNetTest, DistinctKeysNeverContend)
{
    startCoordinator();
    auto a = connectWorker();
    EXPECT_TRUE(a->tryAcquire("row/a"));
    EXPECT_TRUE(a->tryAcquire("row/b"));
    EXPECT_TRUE(a->release("row/a"));
    EXPECT_TRUE(a->release("row/b"));
}

TEST_F(LeaseNetTest, SkipMarkerReplicatesAndExpires)
{
    startCoordinator(std::chrono::milliseconds(150));
    auto a = connectWorker();
    auto b = connectWorker();

    ASSERT_TRUE(a->tryAcquire("row"));
    EXPECT_TRUE(a->markSkipped("row"));
    EXPECT_EQ(b->peek("row"), State::Skipped)
        << "waiters replicate the skip";
    EXPECT_FALSE(b->tryAcquire("row"));

    // Past the staleness window the marker expires, so the next sweep
    // retries the row (never persist a failure).
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(b->peek("row"), State::Absent);
    EXPECT_TRUE(b->tryAcquire("row"));
    EXPECT_TRUE(b->release("row"));
    EXPECT_EQ(coord_->stats().skipsMarked, 1u);
}

TEST_F(LeaseNetTest, StaleOwnerIsFencedAfterTakeover)
{
    startCoordinator(std::chrono::milliseconds(100));
    auto owner = connectWorker();
    auto waiter = connectWorker();

    ASSERT_TRUE(owner->tryAcquire("row"));
    EXPECT_FALSE(waiter->breakStale("row"))
        << "a fresh lease must never be broken";

    // The owner goes silent past the window (no heartbeats).
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_EQ(waiter->peek("row"), State::Stale);
    EXPECT_TRUE(waiter->breakStale("row"));
    EXPECT_EQ(waiter->ownedEpoch("row"), 2u);

    // The resumed owner's epoch-carrying verbs are refused.
    EXPECT_FALSE(owner->heartbeat("row")) << "fenced heartbeat";
    EXPECT_FALSE(owner->release("row")) << "fenced release";
    EXPECT_EQ(waiter->peek("row"), State::Active)
        << "the new owner's lease survived the fenced release";
    EXPECT_TRUE(waiter->release("row"));

    const auto stats = coord_->stats();
    EXPECT_EQ(stats.takeovers, 1u);
    // One fenced op on the wire: the failed heartbeat drops the
    // owner's epoch locally, so the release fails client-side.
    EXPECT_GE(stats.fencedOps, 1u);
}

TEST_F(LeaseNetTest, DisconnectOrphansLeasesImmediately)
{
    // A generous window: the takeover below must come from the
    // orphan rule (connection death), not from mtime-style staleness.
    startCoordinator(std::chrono::seconds(60));
    auto doomed = connectWorker();
    auto waiter = connectWorker();

    ASSERT_TRUE(doomed->tryAcquire("row"));
    EXPECT_EQ(waiter->peek("row"), State::Active);

    doomed.reset(); // Connection drops (worker died mid-row).

    // The coordinator orphans the lease as the connection reaps;
    // waiters see STALE without waiting out the window.
    State s = State::Active;
    for (int i = 0; i < 200 && s == State::Active; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        s = waiter->peek("row");
    }
    EXPECT_EQ(s, State::Stale);
    EXPECT_TRUE(waiter->breakStale("row"));
    EXPECT_TRUE(waiter->release("row"));
    EXPECT_EQ(coord_->stats().orphanedLeases, 1u);
}

// ---------------------------------------------------------------------
// Handshake and plumbing.
// ---------------------------------------------------------------------

TEST_F(LeaseNetTest, HandshakeRefusesIncompatibleWorkers)
{
    startCoordinator();
    auto fd = connectRaw();
    ASSERT_TRUE(fd.ok());
    wire::FrameReader reader;
    std::string reply;
    ASSERT_TRUE(wire::sendFrame(fd.value().get(),
                                "HELLO wrong-abi-fingerprint 1"));
    ASSERT_TRUE(wire::recvFrame(fd.value().get(), reader, reply, 5000));
    EXPECT_EQ(reply.rfind("ERROR", 0), 0u)
        << "a foreign machine's records must never reach the store";

    ASSERT_TRUE(wire::sendFrame(
        fd.value().get(), "HELLO " + DiskCache::machineFingerprint() +
                              " 999999"));
    ASSERT_TRUE(wire::recvFrame(fd.value().get(), reader, reply, 5000));
    EXPECT_EQ(reply.rfind("ERROR", 0), 0u)
        << "catalog-version mismatch must be refused";
}

TEST_F(LeaseNetTest, GarbledBytesGetErrorReplyAndDisconnect)
{
    startCoordinator();
    auto fd = connectRaw();
    ASSERT_TRUE(fd.ok());
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(netWriteFull(fd.value().get(), junk, sizeof junk - 1));
    wire::FrameReader reader;
    std::string reply;
    ASSERT_TRUE(wire::recvFrame(fd.value().get(), reader, reply, 5000));
    EXPECT_EQ(reply.rfind("ERROR bad-frame", 0), 0u) << reply;
    // The coordinator closes after the diagnostic; the next read is EOF.
    EXPECT_FALSE(wire::recvFrame(fd.value().get(), reader, reply, 5000));
}

TEST_F(LeaseNetTest, HandshakeReportsStalenessWindow)
{
    startCoordinator(std::chrono::milliseconds(1234));
    auto a = connectWorker();
    EXPECT_EQ(a->window(), std::chrono::milliseconds(1234));
}

/**
 * The lease window is the coordinator's: a peer renews at a quarter of
 * the window it got at HELLO, whatever its own EBM_CLAIM_STALE_MS says.
 * Here the peer's setting is 60 s but the coordinator judges leases
 * against 200 ms; a rival polling throughout must never find the lease
 * stale enough to take over.
 */
TEST_F(LeaseNetTest, PeerRenewsWithinTheCoordinatorsWindow)
{
    test::Setting own_window(&RuntimeConfig::claimStale,
                             std::chrono::milliseconds(60000));
    startCoordinator(std::chrono::milliseconds(200));
    auto owner = connectWorker();
    auto rival = connectWorker();
    ASSERT_TRUE(owner != nullptr && rival != nullptr);
    EXPECT_EQ(owner->window(), std::chrono::milliseconds(200));
    ASSERT_TRUE(owner->tryAcquire("row"));
    bool fenced = false;
    {
        LeaseHeartbeater beat(owner.get(), "row");
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(1500);
        while (std::chrono::steady_clock::now() < until) {
            if (rival->peek("row") == State::Stale)
                rival->breakStale("row");
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        fenced = beat.fenced();
    }
    EXPECT_EQ(coord_->stats().takeovers, 0u);
    EXPECT_FALSE(fenced);
    EXPECT_TRUE(owner->release("row"));
}

/** The inverse: a peer set to a 50 ms window under a 10 s coordinator
 * renews every 2.5 s, not every 12.5 ms — at most one HB a second. */
TEST_F(LeaseNetTest, PeerDoesNotOverRenewUnderAWideWindow)
{
    test::Setting own_window(&RuntimeConfig::claimStale,
                             std::chrono::milliseconds(50));
    startCoordinator(std::chrono::milliseconds(10000));
    auto owner = connectWorker();
    ASSERT_NE(owner, nullptr);
    ASSERT_TRUE(owner->tryAcquire("row"));
    const std::uint64_t before = coord_->stats().rpcs;
    {
        LeaseHeartbeater beat(owner.get(), "row");
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        EXPECT_FALSE(beat.fenced());
    }
    EXPECT_LE(coord_->stats().rpcs - before, 1u)
        << "heartbeats paced from the peer's own 50 ms setting";
    EXPECT_TRUE(owner->release("row"));
}

TEST_F(LeaseNetTest, UnreachableCoordinatorDegradesToNull)
{
    // The store's socket name is held by a listener that never
    // accepts (a coordinator hung before serving): the connect
    // queues, HELLO gets no reply before its deadline, and
    // makeLeaseProvider warns and returns null (standalone fill),
    // never hangs or throws.
    auto squatter = netListenUnix(localSocketName(path_));
    ASSERT_TRUE(squatter.ok());
    std::unique_ptr<LeaseProvider> lease;
    EXPECT_NO_THROW(lease = makeLeaseProvider(*cache_));
    EXPECT_EQ(lease, nullptr);
}

TEST_F(LeaseNetTest, MalformedCoordinatorRepliesDegradeInsteadOfThrowing)
{
    FakeCoordinator fake(path_);
    // A staleness window that is not a plain number refuses the
    // handshake: no exception, and no negative window.
    // A reply without a window, or with a zero one, is refused too:
    // a peer paces its heartbeats from that window.
    for (const char *hello : {"OK x", "OK 99999999999999999999", "OK -5",
                              "OK", "OK 0", "OK 3600001"}) {
        fake.script(hello, "OK 1");
        std::unique_ptr<NetLeaseProvider> p;
        EXPECT_NO_THROW(p = NetLeaseProvider::joinLocal(*cache_));
        EXPECT_EQ(p, nullptr) << hello;
    }
    // The same through the entry point a sweep uses.
    fake.script("OK x", "OK 1");
    {
        std::unique_ptr<LeaseProvider> lease;
        EXPECT_NO_THROW(lease = makeLeaseProvider(*cache_));
        EXPECT_EQ(lease, nullptr);
    }

    // A grant without an epoch >= 1 latches degraded mode: the row is
    // computed locally and never renewed or released on the wire.
    for (const char *grant : {"OK x", "OK 0", "OK", "OK -1"}) {
        fake.script("OK 1000", grant);
        auto acq = NetLeaseProvider::joinLocal(*cache_);
        ASSERT_NE(acq, nullptr);
        EXPECT_EQ(acq->window(), std::chrono::milliseconds(1000));
        EXPECT_TRUE(acq->tryAcquire("row")) << grant;
        EXPECT_TRUE(acq->degraded()) << grant;
        EXPECT_EQ(acq->ownedEpoch("row"), 0u);
        EXPECT_TRUE(acq->heartbeat("row"));
        EXPECT_TRUE(acq->release("row"));

        auto brk = NetLeaseProvider::joinLocal(*cache_);
        ASSERT_NE(brk, nullptr);
        EXPECT_TRUE(brk->breakStale("row")) << grant;
        EXPECT_TRUE(brk->degraded()) << grant;
        EXPECT_EQ(brk->ownedEpoch("row"), 0u);
        EXPECT_TRUE(brk->release("row"));
    }
    EXPECT_EQ(fake.seen("HB"), 0u);
    EXPECT_EQ(fake.seen("REL"), 0u);
}

TEST_F(LeaseNetTest, RpcLatencyIsRecorded)
{
    startCoordinator();
    auto a = connectWorker();
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(a->tryAcquire("k" + std::to_string(i)));
        ASSERT_TRUE(a->release("k" + std::to_string(i)));
    }
    const auto stats = coord_->stats();
    EXPECT_GE(stats.rpcs, 64u);
    EXPECT_GT(stats.rpcP50Us, 0.0);
    EXPECT_GE(stats.rpcP99Us, stats.rpcP50Us);
    EXPECT_FALSE(stats.summaryLine().empty());
}

} // namespace
} // namespace ebm
