/**
 * @file
 * The networked lease fabric in one process: a Coordinator over a
 * temp store, NetLeaseProvider clients over localhost TCP. Covers the
 * lease verbs (exclusivity, epochs, skip replication), wire-level
 * fencing (stale takeover, fenced heartbeat/release), the
 * disconnect-orphans-leases rule, record streaming (publish/fetch
 * with validation), handshake rejection of incompatible workers, a
 * record cut off mid-stream never reaching the store, and the RPC
 * latency receipts. Forked multi-worker acceptance lives in
 * test_distributed.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/frame_server.hpp"
#include "common/net.hpp"
#include "common/stats.hpp"
#include "common/wire.hpp"
#include "harness/coordinator.hpp"
#include "harness/disk_cache.hpp"
#include "harness/lease_net.hpp"
#include "harness/lease_provider.hpp"
#include "harness/store_format.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

using State = LeaseProvider::State;

NetLeaseProvider::Options
quickConnect()
{
    NetLeaseProvider::Options o;
    o.connectAttempts = 10;
    o.connectBackoff = std::chrono::milliseconds(20);
    o.rpcTimeout = std::chrono::milliseconds(5000);
    return o;
}

/** A coordinator stand-in on 127.0.0.1 that answers HELLO and the
 * ACQ/BREAK grants with scripted replies and records every request. */
class FakeCoordinator
{
  public:
    FakeCoordinator()
    {
        auto listener = netListenTcp("127.0.0.1", 0);
        EXPECT_TRUE(listener.ok());
        port_ = netLocalPort(listener.value().get());
        const Status st = server_.start(std::move(listener.value()),
                                        /*same_user_only=*/false);
        EXPECT_TRUE(st.ok());
    }

    std::string
    address() const
    {
        return "127.0.0.1:" + std::to_string(port_);
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
    std::uint16_t port_ = 0;
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

    /** Start a coordinator on an ephemeral port. */
    Coordinator &
    startCoordinator(std::chrono::milliseconds stale =
                         std::chrono::milliseconds(0))
    {
        Coordinator::Options opts;
        opts.staleThreshold = stale;
        coord_ = std::make_unique<Coordinator>(*cache_, opts);
        const Status st = coord_->start();
        EXPECT_TRUE(st.ok()) << st.error().message;
        return *coord_;
    }

    std::unique_ptr<NetLeaseProvider>
    connectWorker()
    {
        auto p = NetLeaseProvider::connect(coord_->address(),
                                           quickConnect());
        EXPECT_NE(p, nullptr);
        return p;
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
// Record streaming.
// ---------------------------------------------------------------------

TEST_F(LeaseNetTest, PublishStreamsRecordAndFetchValidates)
{
    startCoordinator();
    auto a = connectWorker();
    auto b = connectWorker();

    const std::vector<double> values{1.5, 2.25, 0.125, 3.0, 42.0};
    EXPECT_EQ(b->fetch("combo/x", values.size()), std::nullopt);
    ASSERT_TRUE(a->tryAcquire("combo/x"));
    EXPECT_TRUE(a->publish("combo/x", values));
    EXPECT_TRUE(a->release("combo/x"));

    // Another worker assembles the row from the coordinator's store,
    // bit-exact.
    const auto got = b->fetch("combo/x", values.size());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, values);

    // getValidated's contract holds over the wire: a wrong-shape read
    // is a miss, never a crash.
    EXPECT_EQ(b->fetch("combo/x", values.size() + 1), std::nullopt);

    // The record reached the coordinator's own DiskCache writer.
    const auto direct = cache_->get("combo/x");
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(*direct, values);

    const auto stats = coord_->stats();
    EXPECT_EQ(stats.recordsCommitted, 1u);
    EXPECT_GT(stats.recordBytes, 0u);
    // The wrong-shape fetch is a coordinator-side HIT rejected by
    // client validation, so: one true miss, two served hits.
    EXPECT_GE(stats.fetchMisses, 1u);
    EXPECT_GE(stats.fetchHits, 2u);
}

TEST_F(LeaseNetTest, PartialRecordStreamNeverReachesStore)
{
    startCoordinator(std::chrono::seconds(60));
    auto waiter = connectWorker();

    // A raw protocol client: acquire the row, then die halfway
    // through streaming the record — the kill-mid-record-stream case
    // without needing a second process.
    auto fd = netConnectTcp("127.0.0.1", coord_->port());
    ASSERT_TRUE(fd.ok());
    wire::FrameReader reader;
    std::string reply;
    ASSERT_TRUE(wire::sendFrame(fd.value().get(), "ACQ combo/doomed"));
    ASSERT_TRUE(wire::recvFrame(fd.value().get(), reader, reply, 5000));
    ASSERT_EQ(reply.rfind("OK ", 0), 0u);

    std::string record = "PUT\n";
    storefmt::appendFrame(record, "combo/doomed", {1.0, 2.0, 3.0});
    const std::string framed = wire::encodeFrame(record);
    // Half the frame, then the connection dies (SIGKILL semantics: no
    // goodbye, just a closed socket).
    ASSERT_TRUE(netWriteFull(fd.value().get(), framed.data(),
                             framed.size() / 2));
    fd.value().reset();

    // The torn record must never reach the store — the wire frame
    // never reassembled, so unlike a torn file append there is no
    // tail to truncate — and the dead worker's lease is orphaned so
    // the row is immediately recoverable.
    State s = State::Active;
    for (int i = 0; i < 200 && s == State::Active; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        s = waiter->peek("combo/doomed");
    }
    EXPECT_EQ(s, State::Stale);
    EXPECT_EQ(cache_->get("combo/doomed"), std::nullopt);
    EXPECT_EQ(coord_->stats().recordsCommitted, 0u);
    EXPECT_TRUE(waiter->breakStale("combo/doomed"));
    EXPECT_TRUE(waiter->publish("combo/doomed", {9.0}));
    EXPECT_TRUE(waiter->release("combo/doomed"));
    const auto got = cache_->get("combo/doomed");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->size(), 1u);
}

TEST_F(LeaseNetTest, CorruptRecordPayloadIsRejected)
{
    startCoordinator();
    auto fd = netConnectTcp("127.0.0.1", coord_->port());
    ASSERT_TRUE(fd.ok());
    std::string record = "PUT\n";
    storefmt::appendFrame(record, "combo/bad", {1.0});
    record[record.size() - 1] ^= 0x01; // Corrupt the storefmt CRC.
    wire::FrameReader reader;
    std::string reply;
    ASSERT_TRUE(wire::sendFrame(fd.value().get(), record));
    ASSERT_TRUE(wire::recvFrame(fd.value().get(), reader, reply, 5000));
    EXPECT_EQ(reply.rfind("ERROR", 0), 0u);
    EXPECT_EQ(cache_->get("combo/bad"), std::nullopt);
    EXPECT_EQ(coord_->stats().badFrames, 1u);
}

// ---------------------------------------------------------------------
// Handshake and plumbing.
// ---------------------------------------------------------------------

TEST_F(LeaseNetTest, HandshakeRefusesIncompatibleWorkers)
{
    startCoordinator();
    auto fd = netConnectTcp("127.0.0.1", coord_->port());
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
    auto fd = netConnectTcp("127.0.0.1", coord_->port());
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
    EXPECT_EQ(a->coordinatorStaleMs(),
              std::chrono::milliseconds(1234));
}

TEST_F(LeaseNetTest, MakeLeaseProviderSelectsNetMode)
{
    startCoordinator();
    ::setenv("EBM_COORDINATOR", coord_->address().c_str(), 1);
    auto lease = makeLeaseProvider(*cache_);
    ::unsetenv("EBM_COORDINATOR");
    ASSERT_NE(lease, nullptr);
    EXPECT_STREQ(lease->kind(), "net");
    EXPECT_TRUE(lease->tryAcquire("row"));
    EXPECT_TRUE(lease->release("row"));
}

TEST_F(LeaseNetTest, UnreachableCoordinatorDegradesToNull)
{
    // Port 1 on localhost refuses connections; makeLeaseProvider must
    // warn and return null (standalone sweep), never hang or throw.
    // Shrink the connect-retry budget so the test stays fast.
    ::setenv("EBM_COORDINATOR", "127.0.0.1:1", 1);
    ::setenv("EBM_NET_CONNECT_ATTEMPTS", "2", 1);
    ::setenv("EBM_NET_CONNECT_BACKOFF_MS", "10", 1);
    auto lease = makeLeaseProvider(*cache_);
    ::unsetenv("EBM_COORDINATOR");
    ::unsetenv("EBM_NET_CONNECT_ATTEMPTS");
    ::unsetenv("EBM_NET_CONNECT_BACKOFF_MS");
    EXPECT_EQ(lease, nullptr);
}

TEST_F(LeaseNetTest, MalformedConnectKnobsKeepTheDefaultBudget)
{
    // "-1" must not wrap to ~4.29 billion attempts: the strict parser
    // rejects it and keeps the default 40, which with no backoff
    // between them fail at once against a refusing port.
    ::setenv("EBM_COORDINATOR", "127.0.0.1:1", 1);
    ::setenv("EBM_NET_CONNECT_ATTEMPTS", "-1", 1);
    ::setenv("EBM_NET_CONNECT_BACKOFF_MS", "0", 1);
    const auto t0 = std::chrono::steady_clock::now();
    auto lease = makeLeaseProvider(*cache_);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ::unsetenv("EBM_COORDINATOR");
    ::unsetenv("EBM_NET_CONNECT_ATTEMPTS");
    ::unsetenv("EBM_NET_CONNECT_BACKOFF_MS");
    EXPECT_EQ(lease, nullptr);
    EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST_F(LeaseNetTest, MalformedCoordinatorRepliesDegradeInsteadOfThrowing)
{
    FakeCoordinator fake;
    // A staleness window that is not a plain number refuses the
    // handshake: no exception, and no negative window.
    for (const char *hello : {"OK x", "OK 99999999999999999999", "OK -5"}) {
        fake.script(hello, "OK 1");
        std::unique_ptr<NetLeaseProvider> p;
        EXPECT_NO_THROW(
            p = NetLeaseProvider::connect(fake.address(), quickConnect()));
        EXPECT_EQ(p, nullptr) << hello;
    }
    // The same through the env-driven entry point a sweep uses.
    fake.script("OK x", "OK 1");
    ::setenv("EBM_COORDINATOR", fake.address().c_str(), 1);
    ::setenv("EBM_NET_CONNECT_ATTEMPTS", "1", 1);
    std::unique_ptr<LeaseProvider> lease;
    EXPECT_NO_THROW(lease = makeLeaseProvider(*cache_));
    ::unsetenv("EBM_COORDINATOR");
    ::unsetenv("EBM_NET_CONNECT_ATTEMPTS");
    EXPECT_EQ(lease, nullptr);

    // A grant without an epoch >= 1 latches degraded mode: the row is
    // computed locally and never renewed or released on the wire.
    for (const char *grant : {"OK x", "OK 0", "OK", "OK -1"}) {
        fake.script("OK 1000", grant);
        auto acq = NetLeaseProvider::connect(fake.address(),
                                             quickConnect());
        ASSERT_NE(acq, nullptr);
        EXPECT_EQ(acq->coordinatorStaleMs(),
                  std::chrono::milliseconds(1000));
        EXPECT_TRUE(acq->tryAcquire("row")) << grant;
        EXPECT_TRUE(acq->degraded()) << grant;
        EXPECT_EQ(acq->ownedEpoch("row"), 0u);
        EXPECT_TRUE(acq->heartbeat("row"));
        EXPECT_TRUE(acq->release("row"));

        auto brk = NetLeaseProvider::connect(fake.address(),
                                             quickConnect());
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
