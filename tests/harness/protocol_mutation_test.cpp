/**
 * @file
 * Seeded mutation suites for the wire layer both daemons share: the
 * EBS1 FrameReader, the advisor's verb handler and the coordinator's.
 * Each of 500 Rng seeds damages valid input (bit flips, truncation,
 * copied ranges, length-field damage) and checks that nothing throws
 * or crashes, that a garbled stream gets a sticky Bad verdict and
 * never yields a frame that was not sent, and that every verb reply
 * stays inside its protocol's reply grammar. Like the store loader's
 * suite (DiskCacheTest.SeededMutationsKeepTheLoaderSafe), it runs in
 * every ctest lane, the sanitizer jobs included.
 */
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/net.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "harness/advisor_service.hpp"
#include "harness/disk_cache.hpp"
#include "harness/lease_net.hpp"
#include "harness/lease_provider.hpp"
#include "harness/runner.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {
namespace {

constexpr std::uint64_t kSeeds = 500;

/** Apply 1-4 random mutations to @p bytes. */
void
mutate(Rng &rng, std::string &bytes)
{
    const std::uint64_t mutations = 1 + rng.nextBounded(4);
    for (std::uint64_t m = 0; m < mutations && !bytes.empty(); ++m) {
        switch (rng.nextBounded(3)) {
          case 0: // Flip one bit anywhere.
            bytes[rng.nextBounded(bytes.size())] ^=
                static_cast<char>(1u << rng.nextBounded(8));
            break;
          case 1: // Truncate.
            bytes.resize(rng.nextBounded(bytes.size()));
            break;
          default: { // Copy a range over another place.
            const std::size_t len = 1 + rng.nextBounded(bytes.size());
            const std::size_t from = rng.nextBounded(bytes.size() - len + 1);
            const std::size_t to = rng.nextBounded(bytes.size() - len + 1);
            bytes.replace(to, len, bytes.substr(from, len));
            break;
          }
        }
    }
}

/** The first whitespace-delimited token of @p reply. */
std::string
firstToken(const std::string &reply)
{
    return reply.substr(0, reply.find_first_of(" \n"));
}

TEST(ProtocolMutation, FrameReaderNeverYieldsAFrameThatWasNotSent)
{
    const std::vector<std::string> sent = {
        "PING", "ADVISE BLK TRD OBJ WS", std::string(300, 'x'), "",
        "STATS", std::string("PUT\n\0\1\2", 7)};
    std::string clean;
    std::vector<std::size_t> starts;
    for (const std::string &p : sent) {
        starts.push_back(clean.size());
        clean += wire::encodeFrame(p);
    }

    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        std::string bytes = clean;
        if (rng.nextBounded(3) == 0) {
            // Damage one frame's length field.
            const std::size_t at = starts[rng.nextBounded(starts.size())] + 4;
            std::uint32_t len = 0;
            std::memcpy(&len, bytes.data() + at, sizeof len);
            len = rng.nextBounded(2) == 0
                      ? static_cast<std::uint32_t>(rng.next())
                      : len + 1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(64));
            std::memcpy(bytes.data() + at, &len, sizeof len);
        } else {
            mutate(rng, bytes);
        }

        wire::FrameReader reader;
        std::vector<std::string> got;
        wire::FrameReader::Status status =
            wire::FrameReader::Status::NeedMore;
        std::size_t fed = 0;
        EXPECT_NO_THROW({
            while (fed < bytes.size() &&
                   status != wire::FrameReader::Status::Bad) {
                const std::size_t chunk = std::min<std::size_t>(
                    bytes.size() - fed, 1 + rng.nextBounded(97));
                reader.feed(bytes.data() + fed, chunk);
                fed += chunk;
                std::string payload;
                while ((status = reader.next(payload)) ==
                       wire::FrameReader::Status::Frame)
                    got.push_back(payload);
            }
        });

        for (const std::string &payload : got) {
            EXPECT_NE(std::find(sent.begin(), sent.end(), payload),
                      sent.end())
                << "a frame nobody sent: " << payload;
        }
        if (bytes == clean) {
            EXPECT_EQ(got, sent);
        }
        if (status == wire::FrameReader::Status::Bad) {
            // Sticky: valid frames after the damage are never read.
            const std::string more = wire::encodeFrame("PING");
            reader.feed(more.data(), more.size());
            std::string payload;
            std::string reason;
            EXPECT_EQ(reader.next(payload, &reason),
                      wire::FrameReader::Status::Bad);
            EXPECT_FALSE(reason.empty());
        }
    }
}

TEST(ProtocolMutation, AdvisorRepliesStayInTheGrammar)
{
    const std::string path =
        ::testing::TempDir() + "ebm_mutation_advisor.store";
    std::remove(path.c_str());
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    {
        DiskCache cache(path);
        AdvisorService::Options opts{};
        opts.levels = {1, 2};
        opts.fillJobs = 1;
        AdvisorService service(runner, cache, opts);
        AdvisorServer::Options server_opts;
        server_opts.socketPath = path + ".sock"; // Never started.
        AdvisorServer server(service, server_opts);

        const std::vector<std::string> requests = {
            "PING", "STATS", "SHUTDOWN", "ADVISE BLK TRD OBJ FI WAIT 5",
            "PAIR BLK TRD HS OBJ WS", "POLL 1", "ADVISE TRD BLK"};
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            Rng rng(seed);
            std::string request =
                requests[rng.nextBounded(requests.size())];
            mutate(rng, request);
            std::string reply;
            EXPECT_NO_THROW(reply = server.handleRequest(request))
                << request;
            const std::string verdict = firstToken(reply);
            EXPECT_TRUE(verdict == "OK" || verdict == "PENDING" ||
                        verdict == "ERROR")
                << request << " -> " << reply;
        }
        service.drainFills();
    }
    std::remove(path.c_str());
}

TEST(ProtocolMutation, CoordinatorRepliesStayInTheGrammar)
{
    const std::string path =
        ::testing::TempDir() + "ebm_mutation_coordinator.store";
    std::remove(path.c_str());
    {
        DiskCache cache(path);
        // The first peer of the store elects it to serve; the raw
        // connection below reaches that coordinator on the same name.
        const auto peer = makeLeaseProvider(cache);
        ASSERT_NE(peer, nullptr);
        ASSERT_NE(cache.leaseServer(), nullptr);
        auto conn = netConnectUnix(localSocketName(path));
        ASSERT_TRUE(conn.ok());
        const int fd = conn.value().get();
        wire::FrameReader reader;

        // SHUTDOWN is no coordinator verb: a reply to every later
        // request shows it stopped nothing.
        const std::vector<std::string> requests = {
            "HELLO " + DiskCache::machineFingerprint() + " " +
                std::to_string(kAppCatalogVersion),
            "ACQ row/1", "HB 1 row/1", "REL 1 row/1", "SKIPMARK 1 row/1",
            "PEEK row/1", "BREAK row/1", "PING", "STATS", "SHUTDOWN"};
        const std::set<std::string> grammar = {
            "OK",     "ERROR", "HELD",  "SKIP",  "FENCED",
            "ABSENT", "ACTIVE", "STALE", "DENIED"};
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            Rng rng(seed);
            std::string request =
                requests[rng.nextBounded(requests.size())];
            mutate(rng, request);
            std::string reply;
            ASSERT_TRUE(wire::sendFrame(fd, request));
            ASSERT_TRUE(wire::recvFrame(fd, reader, reply, 5000))
                << "no reply to " << request;
            EXPECT_EQ(grammar.count(firstToken(reply)), 1u)
                << request << " -> " << reply;
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace ebm
