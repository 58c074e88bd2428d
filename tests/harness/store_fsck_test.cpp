/**
 * @file
 * The offline store scrubber: clean stores are untouched, the
 * deterministic corrupted fixture scrubs to exact counts, repair
 * salvages valid frames on *both* sides of a corrupt region (the
 * resync DiskCache's online policy deliberately skips), and — the
 * core invariant — a repaired store is byte-identical to
 * DiskCache::compact() of the same surviving entry set.
 */
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "harness/disk_cache.hpp"
#include "harness/lease_provider.hpp"
#include "harness/store_fsck.hpp"
#include "harness/store_format.hpp"
#include "workload/app_catalog.hpp"

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

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

class StoreFsckTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "ebm_fsck_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".cache";
        removeAll();
    }

    void TearDown() override { removeAll(); }

    void
    removeAll()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".fsck-quarantine").c_str());
        std::remove((path_ + ".fsck-tmp").c_str());
        std::remove((path_ + ".quarantined").c_str());
        std::remove((path_ + ".tmp").c_str());
    }

    std::string path_;
};

TEST_F(StoreFsckTest, MissingFileIsUnrecoverable)
{
    const FsckReport report = fsckStore(path_);
    EXPECT_EQ(report.verdict, FsckReport::Verdict::Unrecoverable);
    EXPECT_FALSE(report.error.empty());
}

TEST_F(StoreFsckTest, GarbageFileIsUnrecoverable)
{
    spit(path_, "this is not a v3 store at all, not even close....");
    const FsckReport report = fsckStore(path_);
    EXPECT_EQ(report.verdict, FsckReport::Verdict::Unrecoverable);
    EXPECT_FALSE(report.headerOk);
}

TEST_F(StoreFsckTest, CleanStoreIsCleanAndUntouched)
{
    {
        DiskCache cache(path_);
        cache.put("alpha", {1.0, 2.0});
        cache.put("beta", {3.0});
        cache.sync();
    }
    const std::string before = slurp(path_);
    FsckOptions options;
    options.repair = true;
    const FsckReport report = fsckStore(path_, options);
    EXPECT_EQ(report.verdict, FsckReport::Verdict::Clean);
    EXPECT_TRUE(report.headerOk);
    EXPECT_EQ(report.framesOk, 2u);
    EXPECT_EQ(report.uniqueKeys, 2u);
    EXPECT_EQ(report.badRegions, 0u);
    EXPECT_FALSE(report.repaired);
    EXPECT_EQ(slurp(path_), before)
        << "a clean store must never be rewritten";
}

TEST_F(StoreFsckTest, FixtureScrubsToExactCounts)
{
    ASSERT_TRUE(writeFsckFixture(path_));
    const FsckReport report = fsckStore(path_);
    EXPECT_EQ(report.verdict, FsckReport::Verdict::Dirty);
    EXPECT_TRUE(report.headerOk);
    EXPECT_EQ(report.framesOk, 8u)
        << "valid frames on both sides of the corruption survive";
    EXPECT_EQ(report.uniqueKeys, 8u);
    EXPECT_EQ(report.badRegions, 1u);
    EXPECT_TRUE(report.tornTail);
    EXPECT_GT(report.bytesQuarantined, 0u);
    EXPECT_FALSE(report.repaired) << "scrub-only must not write";
    EXPECT_EQ(slurp(path_ + ".fsck-quarantine"), "")
        << "scrub-only must not quarantine either";
}

TEST_F(StoreFsckTest, RepairSalvagesAndQuarantines)
{
    ASSERT_TRUE(writeFsckFixture(path_));
    const std::uint64_t dirty_size = slurp(path_).size();

    FsckOptions options;
    options.repair = true;
    const FsckReport report = fsckStore(path_, options);
    EXPECT_EQ(report.verdict, FsckReport::Verdict::Dirty);
    EXPECT_TRUE(report.repaired);
    EXPECT_EQ(report.quarantinePath, path_ + ".fsck-quarantine");
    EXPECT_EQ(slurp(report.quarantinePath).size(),
              report.bytesQuarantined);
    EXPECT_LT(slurp(path_).size(), dirty_size);

    // The repaired store loads cleanly with every salvaged entry.
    DiskCache cache(path_);
    EXPECT_EQ(cache.size(), 8u);
    EXPECT_FALSE(cache.loadReport().quarantined);
    EXPECT_FALSE(cache.loadReport().tornTailTruncated);

    // And a second scrub finds nothing.
    const FsckReport again = fsckStore(path_);
    EXPECT_EQ(again.verdict, FsckReport::Verdict::Clean);
}

TEST_F(StoreFsckTest, RepairedBytesMatchDiskCacheCompact)
{
    // Build a store through DiskCache, corrupt one mid-file frame,
    // repair with fsck, and compare against DiskCache::compact() of
    // the surviving entries: the two code paths must emit identical
    // canonical bytes.
    const std::vector<std::string> keys = {"a/1", "b/2", "c/3", "d/4",
                                           "e/5"};
    {
        DiskCache cache(path_);
        for (std::size_t i = 0; i < keys.size(); ++i)
            cache.put(keys[i], {static_cast<double>(i), 0.5 * i});
        cache.sync();
    }

    // Locate and garble the middle frame ("c/3" — frames are in put
    // order here: one group-commit batch preserves queue order).
    std::string bytes = slurp(path_);
    const std::size_t at = bytes.find("c/3");
    ASSERT_NE(at, std::string::npos);
    bytes[at + 4] ^= 0x7f; // A value byte: checksum now fails.
    spit(path_, bytes);

    FsckOptions options;
    options.repair = true;
    const FsckReport report = fsckStore(path_, options);
    EXPECT_TRUE(report.repaired);
    EXPECT_EQ(report.framesOk, 4u);
    EXPECT_EQ(report.badRegions, 1u);
    const std::string repaired = slurp(path_);

    // Reference: the same four entries written and compacted by
    // DiskCache itself.
    const std::string ref_path = path_ + ".ref";
    {
        DiskCache ref(ref_path);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] == "c/3")
                continue;
            ref.put(keys[i], {static_cast<double>(i), 0.5 * i});
        }
        ref.sync();
        ASSERT_TRUE(ref.compact());
    }
    EXPECT_EQ(repaired, slurp(ref_path))
        << "fsck repair and DiskCache::compact must be byte-identical";
    std::remove(ref_path.c_str());
    std::remove((ref_path + ".tmp").c_str());
}

TEST_F(StoreFsckTest, RepairZeroesTheFencingEpoch)
{
    {
        DiskCache cache(path_);
        cache.noteFencingEpoch(7);
        cache.put("k", {1.0});
        cache.sync();
    }
    // The appended store carries the takeover epoch...
    {
        DiskCache reopened(path_);
        EXPECT_EQ(reopened.loadReport().fencingEpoch, 7u);
    }
    const FsckReport scrub = fsckStore(path_);
    EXPECT_EQ(scrub.fencingEpoch, 7u);

    // ...and a torn tail plus repair renders it canonical again.
    std::string bytes = slurp(path_);
    spit(path_, bytes.substr(0, bytes.size() - 3));
    FsckOptions options;
    options.repair = true;
    const FsckReport report = fsckStore(path_, options);
    EXPECT_TRUE(report.repaired);
    EXPECT_EQ(storefmt::parseHeader(slurp(path_).data()).fencingEpoch,
              0u);
}

TEST_F(StoreFsckTest, RepairSweepsOrphanedEpochSidecars)
{
    {
        // A leased fill: the row is leased through the elected local
        // coordinator, appended, published and released.
        DiskCache cache(path_);
        auto lease = makeLeaseProvider(cache);
        ASSERT_NE(lease, nullptr);
        ASSERT_TRUE(lease->tryAcquire("row"));
        cache.put("row", {1.0});
        ASSERT_TRUE(lease->publish("row", {1.0}));
        ASSERT_TRUE(lease->release("row"));
    }
    EXPECT_TRUE(test::filesBeside(path_).empty());
    const std::string bytes = slurp(path_);

    // Scrub and repair agree the leased store is clean; repair leaves
    // its bytes alone and finds nothing beside it to groom.
    ::setenv("EBM_CLAIM_STALE_MS", "1", 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const FsckReport scrub = fsckStore(path_);
    FsckOptions options;
    options.repair = true;
    const FsckReport report = fsckStore(path_, options);
    ::unsetenv("EBM_CLAIM_STALE_MS");
    EXPECT_EQ(scrub.verdict, FsckReport::Verdict::Clean);
    EXPECT_EQ(report.verdict, FsckReport::Verdict::Clean);
    EXPECT_FALSE(report.repaired);
    EXPECT_EQ(slurp(path_), bytes);
    EXPECT_EQ(report.summaryLine().find("sidecar"), std::string::npos);
    EXPECT_TRUE(test::filesBeside(path_).empty());
}

} // namespace
} // namespace ebm
