/**
 * @file
 * Advisor serving daemon contract:
 *   - cold queries return a ticket, the async fill resolves it, and a
 *     repeat is a memo hit; argument order is canonicalized;
 *   - N concurrent requests for one cold pair dispatch exactly one
 *     simulation (single-flight);
 *   - a restarted daemon re-serves a previously filled pair straight
 *     from the store (no fill dispatched);
 *   - request validation rejects unknown/duplicate apps and malformed
 *     options with the documented error vocabulary;
 *   - the full socket path works end to end, including garbled-frame
 *     rejection and the SHUTDOWN verb.
 *
 * Sweeps use a 2-level ladder (4 combos) on the tiny machine so the
 * one real fill each test needs stays in the fast lane.
 */
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "harness/advisor_service.hpp"
#include "harness/disk_cache.hpp"
#include "harness/runner.hpp"
#include "harness/warm_state.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

class AdvisorServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = ::testing::TempDir() + "ebm_advisor_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
        cache_path_ = stem_ + ".store";
        removeAll();
        runner_.emplace(test::tinyConfig(2), test::tinyOptions());
    }

    void TearDown() override { removeAll(); }

    void
    removeAll()
    {
        std::remove(cache_path_.c_str());
        std::remove((cache_path_ + ".tmp").c_str());
        std::remove((cache_path_ + ".quarantined").c_str());
    }

    AdvisorService::Options
    fastOpts() const
    {
        AdvisorService::Options o{};
        o.levels = {1, 2}; // 4 combos per pair.
        o.fillJobs = 1;
        return o;
    }

    std::string stem_;
    std::string cache_path_;
    std::optional<Runner> runner_;
};

TEST_F(AdvisorServiceTest, ColdMissFillsAsyncThenServesFromMemo)
{
    DiskCache cache(cache_path_);
    AdvisorService svc(*runner_, cache, fastOpts());

    const auto first = svc.advise("BLK", "TRD", 0);
    ASSERT_EQ(first.state, AdvisorService::State::Pending);
    ASSERT_NE(first.ticket, 0u);

    svc.drainFills();
    const auto polled = svc.poll(first.ticket);
    ASSERT_EQ(polled.state, AdvisorService::State::Ready);
    EXPECT_EQ(polled.answer.pair, "BLK_TRD");
    EXPECT_EQ(polled.answer.source, AdvisorService::Source::Fresh);
    ASSERT_EQ(polled.answer.ws.tlp.size(), 2u);
    EXPECT_GT(polled.answer.ws.ws, 0.0);
    ASSERT_EQ(polled.answer.bestAloneTlp.size(), 2u);

    // Repeat — and the swapped argument order — are memo hits on the
    // one canonical pair.
    for (const auto &apps :
         {std::pair<std::string, std::string>{"BLK", "TRD"},
          std::pair<std::string, std::string>{"TRD", "BLK"}}) {
        const auto again = svc.advise(apps.first, apps.second, 0);
        ASSERT_EQ(again.state, AdvisorService::State::Ready);
        EXPECT_EQ(again.answer.pair, "BLK_TRD");
        EXPECT_EQ(again.answer.source, AdvisorService::Source::Memo);
        EXPECT_EQ(again.answer.ws.tlp, polled.answer.ws.tlp);
    }

    const auto s = svc.stats();
    EXPECT_EQ(s.fillsDispatched, 1u);
    EXPECT_EQ(s.fillsCompleted, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.inflight, 0u);
}

TEST_F(AdvisorServiceTest, FillsReportWarmCheckpointTraffic)
{
    // A cold fill sweeps many combinations of few machine shapes, so
    // with the warm-state cache on it must record both misses (first
    // run of a shape computes the prefix) and hits (every later combo
    // of that shape forks from the capture).
    WarmStateCache::instance().clear();
    test::Setting snapshots(&RuntimeConfig::snapshot, true);
    DiskCache cache(cache_path_);
    AdvisorService svc(*runner_, cache, fastOpts());
    const auto r = svc.advise("BLK", "TRD", 0);
    ASSERT_EQ(r.state, AdvisorService::State::Pending);
    svc.drainFills();

    const auto s = svc.stats();
    EXPECT_EQ(s.fillsCompleted, 1u);
    EXPECT_GE(s.snapshotMisses, 1u);
    EXPECT_GE(s.snapshotHits, 1u)
        << "combos sharing a shape must fork, not re-warm";
    WarmStateCache::instance().clear();
}

TEST_F(AdvisorServiceTest, BlockingWaitResolvesWithinDeadline)
{
    DiskCache cache(cache_path_);
    AdvisorService svc(*runner_, cache, fastOpts());
    const auto r = svc.advise("BLK", "TRD", 10 * 60 * 1000);
    ASSERT_EQ(r.state, AdvisorService::State::Ready);
    EXPECT_EQ(r.answer.source, AdvisorService::Source::Fresh);
    EXPECT_EQ(r.answer.pair, "BLK_TRD");
}

/**
 * The single-flight acceptance test: many threads hammer one cold
 * pair; exactly one fill is dispatched, every ticket resolves Ready.
 */
TEST_F(AdvisorServiceTest, ConcurrentColdKeyDispatchesExactlyOneFill)
{
    DiskCache cache(cache_path_);
    AdvisorService svc(*runner_, cache, fastOpts());

    constexpr unsigned kClients = 8;
    std::vector<std::uint64_t> tickets(kClients, 0);
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> clients;
    for (unsigned i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            const auto r = svc.advise("BLK", "TRD", 0);
            if (r.state == AdvisorService::State::Ready)
                ++ready; // raced past the fill: also fine.
            else if (r.state == AdvisorService::State::Pending)
                tickets[i] = r.ticket;
        });
    }
    for (auto &c : clients)
        c.join();
    svc.drainFills();

    for (unsigned i = 0; i < kClients; ++i) {
        if (tickets[i] == 0)
            continue;
        const auto r = svc.poll(tickets[i]);
        ASSERT_EQ(r.state, AdvisorService::State::Ready)
            << "client " << i;
        ++ready;
    }
    EXPECT_EQ(ready.load(), kClients);

    const auto s = svc.stats();
    EXPECT_EQ(s.fillsDispatched, 1u)
        << "N concurrent cold queries must dispatch one simulation";
    EXPECT_EQ(s.fillsCompleted, 1u);
}

/** Restarted daemon: the store, not a fill, answers the second life. */
TEST_F(AdvisorServiceTest, RestartServesFilledPairFromStore)
{
    {
        DiskCache cache(cache_path_);
        AdvisorService svc(*runner_, cache, fastOpts());
        const auto r = svc.advise("BLK", "TRD", 10 * 60 * 1000);
        ASSERT_EQ(r.state, AdvisorService::State::Ready);
        EXPECT_TRUE(cache.compact());
    }

    DiskCache cache(cache_path_);
    AdvisorService svc(*runner_, cache, fastOpts());
    const auto r = svc.advise("BLK", "TRD", 0);
    ASSERT_EQ(r.state, AdvisorService::State::Ready);
    EXPECT_EQ(r.answer.source, AdvisorService::Source::Store);
    EXPECT_EQ(r.answer.pair, "BLK_TRD");
    const auto s = svc.stats();
    EXPECT_EQ(s.fillsDispatched, 0u);
    EXPECT_EQ(s.hits, 1u);
}

TEST_F(AdvisorServiceTest, RejectsUnknownAndDuplicateApps)
{
    DiskCache cache(cache_path_);
    AdvisorService svc(*runner_, cache, fastOpts());

    const auto unknown = svc.advise("BLK", "NOSUCH", 0);
    ASSERT_EQ(unknown.state, AdvisorService::State::Failed);
    EXPECT_EQ(unknown.error.code, Errc::InvalidArgument);
    EXPECT_NE(unknown.error.message.find("NOSUCH"),
              std::string::npos);

    const auto dup = svc.advise("BLK", "BLK", 0);
    ASSERT_EQ(dup.state, AdvisorService::State::Failed);
    EXPECT_EQ(dup.error.code, Errc::InvalidArgument);

    const auto bogus = svc.poll(999);
    ASSERT_EQ(bogus.state, AdvisorService::State::Failed);
    EXPECT_EQ(bogus.error.code, Errc::InvalidArgument);

    const auto s = svc.stats();
    EXPECT_EQ(s.fillsDispatched, 0u);
}

// ---------------------------------------------------------------------
// Request parsing/validation through AdvisorServer::handleRequest
// (no sockets: the wire layers are covered separately).
// ---------------------------------------------------------------------

class AdvisorRequestTest : public AdvisorServiceTest
{
  protected:
    void
    SetUp() override
    {
        AdvisorServiceTest::SetUp();
        cache_.emplace(cache_path_);
        svc_.emplace(*runner_, *cache_, fastOpts());
        AdvisorServer::Options o;
        o.socketPath = stem_ + ".sock"; // never started; unused.
        server_.emplace(*svc_, o);
    }

    void
    TearDown() override
    {
        server_.reset();
        svc_.reset();
        cache_.reset();
        AdvisorServiceTest::TearDown();
    }

    std::optional<DiskCache> cache_;
    std::optional<AdvisorService> svc_;
    std::optional<AdvisorServer> server_;
};

TEST_F(AdvisorRequestTest, ValidatesVerbsAndOptions)
{
    auto &srv = *server_;
    EXPECT_EQ(srv.handleRequest("PING"), "OK PONG");
    EXPECT_EQ(srv.handleRequest(""),
              "ERROR bad-request empty request");
    EXPECT_EQ(srv.handleRequest("FROB X"),
              "ERROR bad-request unknown verb 'FROB'");
    EXPECT_EQ(srv.handleRequest("ADVISE BLK"),
              "ERROR bad-request ADVISE needs two application names");

    const std::string unknown = srv.handleRequest("ADVISE BLK NOSUCH");
    EXPECT_EQ(unknown.rfind("ERROR unknown-app", 0), 0u) << unknown;

    const std::string dup = srv.handleRequest("ADVISE BLK BLK");
    EXPECT_EQ(dup.rfind("ERROR duplicate-app", 0), 0u) << dup;

    const std::string pair_dup =
        srv.handleRequest("PAIR BLK TRD BLK");
    EXPECT_EQ(pair_dup.rfind("ERROR duplicate-app", 0), 0u)
        << pair_dup;

    const std::string bad_obj =
        srv.handleRequest("ADVISE BLK TRD OBJ XX");
    EXPECT_EQ(bad_obj.rfind("ERROR bad-request", 0), 0u) << bad_obj;

    // The strict shared parser: trailing garbage is rejected, not
    // truncated ("5x" is not 5 milliseconds).
    const std::string bad_wait =
        srv.handleRequest("ADVISE BLK TRD WAIT 5x");
    EXPECT_EQ(bad_wait.rfind("ERROR bad-request", 0), 0u) << bad_wait;
    const std::string dangling =
        srv.handleRequest("ADVISE BLK TRD WAIT");
    EXPECT_EQ(dangling.rfind("ERROR bad-request", 0), 0u) << dangling;

    const std::string bad_poll = srv.handleRequest("POLL notanumber");
    EXPECT_EQ(bad_poll.rfind("ERROR bad-request", 0), 0u) << bad_poll;
    const std::string unk_ticket = srv.handleRequest("POLL 4242");
    EXPECT_EQ(unk_ticket.rfind("ERROR unknown-ticket", 0), 0u)
        << unk_ticket;

    const std::string stats = srv.handleRequest("STATS");
    EXPECT_EQ(stats.rfind("OK STATS requests=", 0), 0u) << stats;
    EXPECT_NE(stats.find(" snapshot_hits="), std::string::npos)
        << stats;
    EXPECT_NE(stats.find(" snapshot_misses="), std::string::npos)
        << stats;
    // Nothing above may have started a simulation.
    EXPECT_EQ(svc_->stats().fillsDispatched, 0u);
}

TEST_F(AdvisorRequestTest, AdviseAndPollThroughRequestLayer)
{
    auto &srv = *server_;
    const std::string pending = srv.handleRequest("ADVISE TRD BLK");
    ASSERT_EQ(pending.rfind("PENDING ticket=", 0), 0u) << pending;
    EXPECT_NE(pending.find("pair=BLK_TRD"), std::string::npos)
        << pending;
    const std::string ticket = pending.substr(
        std::string("PENDING ticket=").size(),
        pending.find(' ', std::string("PENDING ticket=").size()) -
            std::string("PENDING ticket=").size());

    svc_->drainFills();
    const std::string done = srv.handleRequest("POLL " + ticket);
    ASSERT_EQ(done.rfind("OK ADVISE", 0), 0u) << done;
    EXPECT_NE(done.find("pair=BLK_TRD"), std::string::npos);
    EXPECT_NE(done.find("tlp="), std::string::npos);
    EXPECT_NE(done.find("source=fresh"), std::string::npos);

    const std::string warm = srv.handleRequest("ADVISE BLK TRD OBJ FI");
    ASSERT_EQ(warm.rfind("OK ADVISE", 0), 0u) << warm;
    EXPECT_NE(warm.find("obj=FI"), std::string::npos);
    EXPECT_NE(warm.find("source=memo"), std::string::npos);
}

// ---------------------------------------------------------------------
// Socket end to end.
// ---------------------------------------------------------------------

class AdvisorSocketTest : public AdvisorRequestTest
{
  protected:
    void
    SetUp() override
    {
        AdvisorRequestTest::SetUp();
        socket_path_ = stem_ + ".sock";
        AdvisorServer::Options o;
        o.socketPath = socket_path_;
        live_.emplace(*svc_, o);
        ASSERT_TRUE(live_->start().ok());
    }

    void
    TearDown() override
    {
        live_.reset();
        std::remove(socket_path_.c_str());
        AdvisorRequestTest::TearDown();
    }

    std::string socket_path_;
    std::optional<AdvisorServer> live_;
};

TEST_F(AdvisorSocketTest, ServesQueriesOverTheSocket)
{
    auto conn = netConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok()) << conn.error().message;
    const int fd = conn.value().get();
    servefmt::FrameReader reader;
    std::string reply;

    ASSERT_TRUE(servefmt::sendFrame(fd, "PING"));
    ASSERT_TRUE(servefmt::recvFrame(fd, reader, reply, 10000));
    EXPECT_EQ(reply, "OK PONG");

    // One blocking cold query straight through the socket.
    ASSERT_TRUE(
        servefmt::sendFrame(fd, "ADVISE BLK TRD WAIT 600000"));
    ASSERT_TRUE(servefmt::recvFrame(fd, reader, reply, 600000));
    ASSERT_EQ(reply.rfind("OK ADVISE", 0), 0u) << reply;
    EXPECT_NE(reply.find("pair=BLK_TRD"), std::string::npos);

    ASSERT_TRUE(servefmt::sendFrame(fd, "STATS"));
    ASSERT_TRUE(servefmt::recvFrame(fd, reader, reply, 10000));
    EXPECT_EQ(reply.rfind("OK STATS", 0), 0u) << reply;
    EXPECT_NE(reply.find("latency_samples="), std::string::npos);
}

TEST_F(AdvisorSocketTest, GarbledBytesGetErrorReplyAndDisconnect)
{
    auto conn = netConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    const int fd = conn.value().get();
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(netWriteFull(fd, junk, sizeof junk - 1));
    servefmt::FrameReader reader;
    std::string reply;
    ASSERT_TRUE(servefmt::recvFrame(fd, reader, reply, 10000));
    EXPECT_EQ(reply.rfind("ERROR bad-frame", 0), 0u) << reply;
    // The server closes after the diagnostic; the next read is EOF.
    EXPECT_FALSE(servefmt::recvFrame(fd, reader, reply, 10000));
}

/** This process's virtual size in KiB (VmSize in /proc/self/status). */
std::uint64_t
vmSizeKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmSize:", 0) == 0)
            return std::stoull(line.substr(7));
    }
    return 0;
}

TEST_F(AdvisorSocketTest, ServedConnectionsDoNotAccumulateThreads)
{
    const auto ping_cycles = [this](int n) {
        for (int i = 0; i < n; ++i) {
            auto conn = netConnectUnix(socket_path_);
            ASSERT_TRUE(conn.ok()) << conn.error().message;
            servefmt::FrameReader reader;
            std::string reply;
            ASSERT_TRUE(servefmt::sendFrame(conn.value().get(), "PING"));
            ASSERT_TRUE(servefmt::recvFrame(conn.value().get(), reader,
                                            reply, 10000));
            ASSERT_EQ(reply, "OK PONG");
        }
    };
    // Warm up first: glibc reserves a 64 MiB malloc arena for each
    // thread that allocates while all existing arenas are attached,
    // so the first overlapping connection threads grow VmSize by a
    // bounded amount that is not a leak.
    ping_cycles(50);
    // Each unjoined connection thread keeps its stack mapped (8 MiB by
    // default), so 200 leaked threads would add well over 1 GiB.
    const std::uint64_t before = vmSizeKib();
    ASSERT_GT(before, 0u);
    ping_cycles(200);
    const std::uint64_t after = vmSizeKib();
    EXPECT_LT(after, before + 256 * 1024)
        << "VmSize grew from " << before << " KiB to " << after << " KiB";
}

TEST_F(AdvisorSocketTest, ShutdownVerbStopsTheServer)
{
    auto conn = netConnectUnix(socket_path_);
    ASSERT_TRUE(conn.ok());
    const int fd = conn.value().get();
    servefmt::FrameReader reader;
    std::string reply;
    ASSERT_TRUE(servefmt::sendFrame(fd, "SHUTDOWN"));
    ASSERT_TRUE(servefmt::recvFrame(fd, reader, reply, 10000));
    EXPECT_EQ(reply, "OK BYE");
    live_->waitForShutdown();
    EXPECT_TRUE(live_->shutdownRequested());
    live_->stop();
    // The socket file is gone; a reconnect must fail.
    EXPECT_FALSE(netConnectUnix(socket_path_).ok());
}

} // namespace
} // namespace ebm
