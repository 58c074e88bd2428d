/**
 * @file
 * The row-fill engine's contract: submission order (descending
 * 1 + sum of TLP levels, ties in row order, level order for a profile
 * under an armed fault injector), persistence of simulated rows, and
 * the lease gate's wait phase against a scripted in-process lease —
 * peer results folded in, skip markers replicated, stale leases taken
 * over with their epoch echoed into the store header.
 */
#include "harness/row_fill.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/fault_injector.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/lease_provider.hpp"
#include "harness/profile_db.hpp"
#include "harness/store_format.hpp"

namespace ebm {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Keys of the store's frames in append order (= run order for a
 * serial, unleased fill). */
std::vector<std::string>
appendOrder(const std::string &path)
{
    const std::string bytes = slurp(path);
    std::vector<std::string> keys;
    std::size_t off = storefmt::kHeaderSize;
    storefmt::Frame frame;
    while (off < bytes.size() &&
           storefmt::parseFrameAt(bytes.data(), off, bytes.size(),
                                  frame) == storefmt::FrameParse::Ok) {
        keys.push_back(frame.key);
        off += frame.bytes;
    }
    EXPECT_EQ(off, bytes.size()) << "unparsable frame in " << path;
    return keys;
}

/**
 * A lease layer scripted per key, for one serial fill: a key in
 * `held` belongs to a peer at dispatch (the first tryAcquire fails)
 * whose lease then peeks Active `activePeeks` times before turning
 * into `after` (default Absent). A result in `peerResults` becomes
 * fetchable once those Active peeks are used up, or — for keys in
 * `landOnAcquire` — only once this worker holds the lease, as when
 * the owner publishes just before its lease is taken over. Every
 * verb that changes ownership is recorded.
 */
class ScriptedLease : public LeaseProvider
{
  public:
    std::set<std::string> held;
    std::map<std::string, State> after;
    std::map<std::string, std::vector<double>> peerResults;
    std::set<std::string> landOnAcquire;
    std::uint32_t activePeeks = 3;

    std::vector<std::string> published;
    std::vector<std::string> released;
    std::vector<std::string> skipped;

    bool
    tryAcquire(const std::string &key) override
    {
        if (held.erase(key) != 0)
            return false;
        owned_[key] = 1;
        return true;
    }

    bool heartbeat(const std::string &) override { return true; }

    bool
    release(const std::string &key) override
    {
        released.push_back(key);
        owned_.erase(key);
        return true;
    }

    bool
    markSkipped(const std::string &key) override
    {
        skipped.push_back(key);
        owned_.erase(key);
        return true;
    }

    State
    peek(const std::string &key) override
    {
        if (peeks_[key]++ < activePeeks)
            return State::Active;
        return after.count(key) != 0 ? after[key] : State::Absent;
    }

    bool
    breakStale(const std::string &key) override
    {
        owned_[key] = 2; // Takeover: the epoch moves past the first.
        return true;
    }

    std::uint64_t
    ownedEpoch(const std::string &key) const override
    {
        const auto it = owned_.find(key);
        return it == owned_.end() ? 0 : it->second;
    }

    bool
    publish(const std::string &key) override
    {
        published.push_back(key);
        return true;
    }

    std::optional<std::vector<double>>
    fetch(const std::string &key, RecordShape shape) override
    {
        const auto it = peerResults.find(key);
        const bool landed = landOnAcquire.count(key) != 0
                                ? owned_.count(key) != 0
                                : peeks_[key] >= activePeeks;
        if (it == peerResults.end() || !shape.fits(it->second) ||
            !landed)
            return std::nullopt;
        return it->second;
    }

    std::chrono::milliseconds window() const override
    {
        return std::chrono::milliseconds(10000);
    }

  private:
    std::map<std::string, std::uint64_t> owned_;
    std::map<std::string, std::uint32_t> peeks_;
};

class RowFillTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "ebm_row_fill_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".cache";
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST(RowFillSortKey, IsOnePlusTheSumOfTlpLevels)
{
    EXPECT_EQ(tlpSortKey({}), 1u);
    EXPECT_EQ(tlpSortKey({24}), 25u);
    EXPECT_EQ(tlpSortKey({1, 4}), 6u);
    EXPECT_EQ(tlpSortKey({4, 1}), 6u);
}

TEST_F(RowFillTest, SubmitsByDescendingSortKeyTiesInRowOrder)
{
    DiskCache cache(path_);
    std::vector<FillRow> rows;
    for (const std::uint64_t key : {2, 5, 2, 9, 5}) {
        FillRow row;
        row.key = "row/" + std::to_string(rows.size());
        row.sortKey = key;
        rows.push_back(row);
    }
    std::vector<std::size_t> ran;
    const std::vector<FilledRow> filled = fillRows(
        cache, {nullptr, 1, 1}, rows,
        [&ran](std::size_t i) -> std::optional<std::vector<double>> {
            ran.push_back(i);
            return std::vector<double>{static_cast<double>(i)};
        });

    EXPECT_EQ(ran, (std::vector<std::size_t>{3, 1, 4, 0, 2}));
    // Outcomes come back in row order whatever the run order was, and
    // every simulated row is in the store.
    ASSERT_EQ(filled.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(filled[i].source, RowSource::Simulated);
        EXPECT_EQ(filled[i].values,
                  std::vector<double>{static_cast<double>(i)});
        EXPECT_EQ(cache.get(rows[i].key), filled[i].values);
    }
}

TEST_F(RowFillTest, SweepRunsRowsByDescendingTotalTlp)
{
    const std::vector<std::uint32_t> ladder = {1, 2, 4};
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const Workload wl = makePair("BLK", "TRD");
    {
        DiskCache cache(path_);
        Exhaustive ex(runner, cache);
        ex.setJobs(1);
        ex.sweep(wl, ladder);
        EXPECT_EQ(ex.status().simulated, 9u);
    }

    // Odometer rows (app 0 spins fastest), stably sorted by
    // descending 1 + sum of levels.
    std::vector<TlpCombo> combos = enumerateCombos(ladder, 2);
    std::stable_sort(combos.begin(), combos.end(),
                     [](const TlpCombo &a, const TlpCombo &b) {
                         return tlpSortKey(a) > tlpSortKey(b);
                     });
    std::vector<std::string> expected;
    for (const TlpCombo &combo : combos)
        expected.push_back(runner.comboKey(wl.name, combo));
    EXPECT_EQ(expected.front(), runner.comboKey(wl.name, {4, 4}));
    EXPECT_EQ(appendOrder(path_), expected);
}

TEST_F(RowFillTest, ProfileRunsHighestLevelFirst)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const AppProfile app = resolveApps(makePair("BLK", "TRD")).at(0);
    {
        DiskCache cache(path_);
        ProfileDb profiles(runner, cache);
        profiles.setJobs(1);
        profiles.profile(app);
    }
    std::vector<std::string> expected;
    for (const std::uint32_t level : GpuConfig::tlpLevels())
        expected.push_back(runner.aloneKey(app.name, level));
    std::reverse(expected.begin(), expected.end());
    EXPECT_EQ(appendOrder(path_), expected);
}

TEST_F(RowFillTest, ProfileRunsInLevelOrderUnderAnInjector)
{
    // An armed injector's query order is part of its documented fault
    // schedule, so the profile pins the historical level order: one
    // worker whatever jobs() says, and no cost ordering.
    FaultInjector injector(7);
    RunOptions opts = test::tinyOptions();
    opts.faultInjector = &injector;
    Runner runner(test::tinyConfig(2), opts);
    const AppProfile app = resolveApps(makePair("BLK", "TRD")).at(0);
    {
        DiskCache cache(path_);
        ProfileDb profiles(runner, cache);
        profiles.setJobs(4);
        profiles.profile(app);
    }
    std::vector<std::string> expected;
    for (const std::uint32_t level : GpuConfig::tlpLevels())
        expected.push_back(runner.aloneKey(app.name, level));
    EXPECT_EQ(appendOrder(path_), expected);
}

/** Every ladder level a profile requests is a row of its status: a
 * cold profile simulates them all, a warm one reads them all. */
TEST_F(RowFillTest, ProfileCountsEveryLevelInItsStatus)
{
    Runner runner(test::tinyConfig(2), test::tinyOptions());
    const AppProfile app = resolveApps(makePair("BLK", "TRD")).at(0);
    const std::size_t levels = GpuConfig::tlpLevels().size();
    ASSERT_EQ(levels, 8u);
    for (const bool warm : {false, true}) {
        DiskCache cache(path_);
        ProfileDb profiles(runner, cache);
        profiles.setJobs(2);
        profiles.profile(app);
        profiles.profile(app); // Memoized: requests no rows.
        const SweepStatus &status = profiles.status();
        EXPECT_EQ(status.combos, levels) << "warm=" << warm;
        EXPECT_EQ(status.fromCache, warm ? levels : 0u) << "warm=" << warm;
        EXPECT_EQ(status.simulated, warm ? 0u : levels) << "warm=" << warm;
        EXPECT_EQ(status.fromPeers, 0u);
    }
}

TEST_F(RowFillTest, LeaseGateFoldsInPeersReplicatesSkipsAndTakesOver)
{
    ScriptedLease lease;
    // "free" is ours to lease; "done" is finished by its owner while
    // we wait; "gone" is skipped by its owner; "stale" loses its owner
    // and is taken over; "late" is released by its owner, and its
    // result shows up only on the re-probe after we lease it.
    const std::vector<std::string> keys = {"free", "done", "gone",
                                           "stale", "late"};
    lease.held = {"done", "gone", "stale", "late"};
    lease.after = {{"gone", LeaseProvider::State::Skipped},
                   {"stale", LeaseProvider::State::Stale}};
    lease.peerResults = {{"done", {1.0, 2.0}}, {"late", {5.0, 6.0}}};
    lease.landOnAcquire = {"late"};

    std::vector<FillRow> rows;
    for (const std::string &key : keys) {
        FillRow row;
        row.key = key;
        rows.push_back(row);
    }

    std::vector<std::string> simulated;
    std::vector<FilledRow> filled;
    {
        DiskCache cache(path_);
        filled = fillRows(cache, {&lease, 1, 2}, rows,
                          [&](std::size_t i)
                              -> std::optional<std::vector<double>> {
                              simulated.push_back(keys[i]);
                              return std::vector<double>{
                                  3.0, static_cast<double>(i)};
                          });
        EXPECT_EQ(cache.get("free"), (std::vector<double>{3.0, 0.0}));
        EXPECT_EQ(cache.get("stale"), (std::vector<double>{3.0, 3.0}));
        EXPECT_FALSE(cache.get("done").has_value());
    }

    EXPECT_EQ(simulated, (std::vector<std::string>{"free", "stale"}));
    ASSERT_EQ(filled.size(), keys.size());
    EXPECT_EQ(filled[0].source, RowSource::Simulated);
    EXPECT_EQ(filled[1].source, RowSource::Peer);
    EXPECT_EQ(filled[1].values, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(filled[2].source, RowSource::Skipped);
    EXPECT_TRUE(filled[2].values.empty());
    EXPECT_EQ(filled[3].source, RowSource::Simulated);
    EXPECT_EQ(filled[4].source, RowSource::Peer);
    EXPECT_EQ(filled[4].values, (std::vector<double>{5.0, 6.0}));

    // Published before release; the late row's lease, won only to
    // find the peer's result, is dropped without publishing.
    EXPECT_EQ(lease.published,
              (std::vector<std::string>{"free", "stale"}));
    EXPECT_EQ(lease.released,
              (std::vector<std::string>{"free", "stale", "late"}));
    EXPECT_TRUE(lease.skipped.empty());

    // The takeover's epoch is echoed into the store header.
    const std::string bytes = slurp(path_);
    ASSERT_GE(bytes.size(), storefmt::kHeaderSize);
    EXPECT_EQ(storefmt::parseHeader(bytes.data()).fencingEpoch, 2u);
}

TEST_F(RowFillTest, SkippedRowLeavesAMarkerAndNoStoreEntry)
{
    ScriptedLease lease;
    std::vector<FillRow> rows(2);
    rows[0].key = "ok";
    rows[1].key = "bad";
    DiskCache cache(path_);
    const std::vector<FilledRow> filled = fillRows(
        cache, {&lease, 1, 1}, rows,
        [](std::size_t i) -> std::optional<std::vector<double>> {
            if (i == 1)
                return std::nullopt;
            return std::vector<double>{1.0};
        });
    EXPECT_EQ(filled[0].source, RowSource::Simulated);
    EXPECT_EQ(filled[1].source, RowSource::Skipped);
    EXPECT_EQ(lease.skipped, (std::vector<std::string>{"bad"}));
    EXPECT_EQ(lease.published, (std::vector<std::string>{"ok"}));
    EXPECT_FALSE(cache.get("bad").has_value());
}

} // namespace
} // namespace ebm
