#include "harness/disk_cache.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "common/rng.hpp"
#include "harness/lease_provider.hpp"
#include "harness/online_runs.hpp"
#include "harness/store_format.hpp"
#include "harness/store_fsck.hpp"

namespace ebm {
namespace {

/** Slurp a file's raw bytes. */
std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Replace the file at @p path with @p bytes. */
void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes;
}

/** The retired v2 text format's per-line checksum (for fixtures). */
std::uint64_t
v2Checksum(const std::string &key, const std::vector<double> &values)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    for (const double v : values)
        h = hashIds(h, std::bit_cast<std::uint64_t>(v));
    return h;
}

std::string
toHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

class DiskCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "ebm_cache_test_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".txt";
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".quarantined").c_str());
        std::remove((path_ + ".tmp").c_str());
    }

    /** Write @p text as the store file, open it, and check the file
     * is quarantined byte for byte and the store reopens empty in v3. */
    void
    expectSetAsideAndReopenedEmpty(const std::string &text)
    {
        {
            std::ofstream out(path_, std::ios::trunc | std::ios::binary);
            out << text;
        }
        {
            DiskCache cache(path_);
            EXPECT_TRUE(cache.loadReport().quarantined);
            EXPECT_EQ(cache.size(), 0u);
            EXPECT_FALSE(cache.get("alone/BFS/4").has_value());
            EXPECT_EQ(slurpFile(cache.loadReport().quarantinePath), text);
            // The store stays usable afterwards.
            cache.put("fresh", {1.0});
            EXPECT_TRUE(cache.get("fresh").has_value());
        }
        EXPECT_EQ(slurpFile(path_).substr(0, 8), "EBMCBIN3");
        DiskCache reopened(path_);
        EXPECT_FALSE(reopened.loadReport().quarantined);
        EXPECT_EQ(reopened.size(), 1u);
        EXPECT_FALSE(reopened.get("alone/BFS/4").has_value());
    }

    std::string path_;
};

TEST_F(DiskCacheTest, MissingFileIsEmptyCache)
{
    DiskCache cache(path_);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.get("nope").has_value());
}

TEST_F(DiskCacheTest, PutThenGetRoundTrip)
{
    DiskCache cache(path_);
    cache.put("k1", {1.0, 2.5, -3.0});
    const auto v = cache.get("k1");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, (std::vector<double>{1.0, 2.5, -3.0}));
}

TEST_F(DiskCacheTest, PersistsAcrossInstances)
{
    {
        DiskCache cache(path_);
        cache.put("alone/BFS/4", {0.123456789012345, 42.0});
    }
    DiskCache reopened(path_);
    const auto v = reopened.get("alone/BFS/4");
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ((*v)[0], 0.123456789012345);
    EXPECT_DOUBLE_EQ((*v)[1], 42.0);
}

TEST_F(DiskCacheTest, OverwriteUpdatesInMemoryValue)
{
    DiskCache cache(path_);
    cache.put("k", {1.0});
    cache.put("k", {2.0});
    EXPECT_EQ((*cache.get("k"))[0], 2.0);
}

TEST_F(DiskCacheTest, EmptyValueAllowed)
{
    DiskCache cache(path_);
    cache.put("empty", {});
    ASSERT_TRUE(cache.get("empty").has_value());
    EXPECT_TRUE(cache.get("empty")->empty());
}

TEST_F(DiskCacheTest, ManyKeys)
{
    DiskCache cache(path_);
    for (int i = 0; i < 100; ++i)
        cache.put("key" + std::to_string(i),
                  {static_cast<double>(i)});
    DiskCache reopened(path_);
    EXPECT_EQ(reopened.size(), 100u);
    EXPECT_EQ((*reopened.get("key57"))[0], 57.0);
}

TEST_F(DiskCacheTest, ReservedCharacterInKeyIsFatal)
{
    DiskCache cache(path_);
    EXPECT_EBM_FATAL(cache.put("bad|key", {1.0}), "reserved");
    EXPECT_EBM_FATAL(cache.put("", {1.0}), "empty key");
}

TEST_F(DiskCacheTest, FileStartsWithBinaryHeader)
{
    {
        DiskCache cache(path_);
        cache.put("k", {1.0});
    }
    const std::string bytes = slurpFile(path_);
    ASSERT_GE(bytes.size(), 64u);
    EXPECT_EQ(bytes.substr(0, 8), "EBMCBIN3");
    // The machine fingerprint sits in the header's fixed field.
    EXPECT_EQ(bytes.find(DiskCache::machineFingerprint()), 16u);
}

TEST_F(DiskCacheTest, TornTailTruncatesInsteadOfQuarantining)
{
    {
        DiskCache cache(path_);
        cache.put("good", {1.0, 2.0});
        cache.put("torn", {3.0, 4.0});
    }
    // Chop the file mid-frame, as a killed writer would leave it.
    // Entries append in put order, so "torn" holds the tail frame.
    const std::string content = slurpFile(path_);
    {
        std::ofstream out(path_, std::ios::trunc | std::ios::binary);
        out << content.substr(0, content.size() - 9);
    }
    DiskCache reopened(path_);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.loadReport().entriesSkipped, 1u);
    EXPECT_TRUE(reopened.loadReport().tornTailTruncated);
    // The tail was chopped, not the world: no quarantine, the intact
    // prefix survives, and the torn entry reads as a miss.
    EXPECT_FALSE(reopened.loadReport().quarantined);
    EXPECT_TRUE(reopened.get("good").has_value());
    EXPECT_FALSE(reopened.get("torn").has_value());

    // The truncation is durable: the next open is perfectly clean.
    DiskCache clean(path_);
    EXPECT_EQ(clean.size(), 1u);
    EXPECT_EQ(clean.loadReport().entriesSkipped, 0u);
    EXPECT_FALSE(clean.loadReport().tornTailTruncated);
}

TEST_F(DiskCacheTest, FlippedBitMidFileFailsChecksumAndQuarantines)
{
    {
        DiskCache cache(path_);
        cache.put("first", {1.25});
        cache.put("second", {2.5});
    }
    std::string content = slurpFile(path_);
    // Corrupt a raw value byte of the *first* frame: damage before
    // the tail can never be a torn append, so the whole file is
    // suspect and gets quarantined (v2 contract, frame-by-frame).
    const double v = 1.25;
    std::string needle(sizeof v, '\0');
    std::memcpy(needle.data(), &v, sizeof v);
    const auto pos = content.find(needle);
    ASSERT_NE(pos, std::string::npos);
    content[pos] ^= 0x40;
    {
        std::ofstream out(path_, std::ios::trunc | std::ios::binary);
        out << content;
    }
    DiskCache reopened(path_);
    EXPECT_FALSE(reopened.get("first").has_value());
    EXPECT_EQ(reopened.loadReport().entriesSkipped, 1u);
    EXPECT_TRUE(reopened.loadReport().quarantined);
    EXPECT_FALSE(reopened.loadReport().tornTailTruncated);
    std::remove(reopened.loadReport().quarantinePath.c_str());
}

TEST_F(DiskCacheTest, FlippedBitInTailFrameTruncatesOnly)
{
    {
        DiskCache cache(path_);
        cache.put("first", {1.25});
        cache.put("second", {2.5});
    }
    std::string content = slurpFile(path_);
    // A garbled byte in the *final* frame is indistinguishable from a
    // cut tail write: the store chops it and keeps the prefix.
    const double v = 2.5;
    std::string needle(sizeof v, '\0');
    std::memcpy(needle.data(), &v, sizeof v);
    const auto pos = content.find(needle);
    ASSERT_NE(pos, std::string::npos);
    content[pos] ^= 0x40;
    {
        std::ofstream out(path_, std::ios::trunc | std::ios::binary);
        out << content;
    }
    DiskCache reopened(path_);
    EXPECT_TRUE(reopened.get("first").has_value());
    EXPECT_FALSE(reopened.get("second").has_value());
    EXPECT_TRUE(reopened.loadReport().tornTailTruncated);
    EXPECT_FALSE(reopened.loadReport().quarantined);
}

TEST_F(DiskCacheTest, WrongVersionHeaderQuarantinesAndStartsFresh)
{
    {
        std::ofstream out(path_);
        out << "ebmcache v999 " << DiskCache::machineFingerprint()
            << '\n';
        out << "key|0000000000000000| 1 2 3\n";
    }
    DiskCache cache(path_);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_TRUE(cache.loadReport().quarantined);
    // The bad file was set aside, not destroyed.
    std::ifstream q(cache.loadReport().quarantinePath);
    EXPECT_TRUE(q.good());
    std::remove(cache.loadReport().quarantinePath.c_str());
}

TEST_F(DiskCacheTest, ForeignMachineFingerprintQuarantines)
{
    {
        std::ofstream out(path_);
        out << "ebmcache v2 vax-d128-be\n";
        out << "key|0000000000000000| 1\n";
    }
    DiskCache cache(path_);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_TRUE(cache.loadReport().quarantined);
    std::remove(cache.loadReport().quarantinePath.c_str());
}

TEST_F(DiskCacheTest, DuplicateKeysLastWins)
{
    // Appends never rewrite, so a key put twice leaves two frames in
    // the store; on load the later frame must win and the duplicate
    // must be counted.
    {
        DiskCache cache(path_);
        cache.put("dup", {1.0});
        cache.put("other", {7.0});
        cache.put("dup", {2.0});
    }
    DiskCache cache(path_);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.loadReport().duplicateKeys, 1u);
    EXPECT_EQ((*cache.get("dup"))[0], 2.0);
}

TEST_F(DiskCacheTest, UnwritableDirectoryDegradesToMemoryOnly)
{
    DiskCache cache("/nonexistent-dir-ebm/sub/cache.txt");
    cache.put("k", {1.0});
    EXPECT_GE(cache.persistFailures(), 1u);
    // The entry is still served from memory.
    ASSERT_TRUE(cache.get("k").has_value());
    EXPECT_EQ((*cache.get("k"))[0], 1.0);
}

// v1 (plain text) and v2 (checksummed text) stores are no longer read.
// A pre-v3 file is "migrated" by setting it aside whole and restarting
// the store as an empty v3 file: well-formed entries, corrupt lines and
// garbage floats alike are recomputed rather than parsed.
TEST_F(DiskCacheTest, LegacyV1FileIsMigrated)
{
    expectSetAsideAndReopenedEmpty("alone/BFS/4| 0.5 0.25\n"
                                   "combo/x/1/1| 1 2 3 4 5\n");
}

TEST_F(DiskCacheTest, CorruptLinesAreSkipped)
{
    expectSetAsideAndReopenedEmpty("not a valid line\n"
                                   "good| 1 2 3\n");
}

TEST_F(DiskCacheTest, V2TextFileIsMigratedToV3)
{
    const std::vector<double> a = {0.5, 0.25};
    const std::vector<double> b = {1.0, 2.0, 3.0, 4.0, 5.0};
    expectSetAsideAndReopenedEmpty(
        "ebmcache v2 " + DiskCache::machineFingerprint() + "\n" +
        "alone/BFS/4|" + toHex(v2Checksum("alone/BFS/4", a)) +
        "| 0.5 0.25\n" +
        "combo/x/1/1|" + toHex(v2Checksum("combo/x/1/1", b)) +
        "| 1 2 3 4 5\n");
}

TEST_F(DiskCacheTest, GarbageFloatsFailChecksumAndAreSkipped)
{
    expectSetAsideAndReopenedEmpty(
        "ebmcache v2 " + DiskCache::machineFingerprint() + "\n" +
        "junk|0123456789abcdef| 1.0 banana 3.0\n"
        "alsojunk|00ff| 0.5e+\n");
}

TEST_F(DiskCacheTest, BinaryHeaderFingerprintMismatchQuarantines)
{
    {
        DiskCache cache(path_);
        cache.put("k", {1.0});
    }
    // Rewrite the header's fingerprint field: a foreign machine's
    // bit patterns cannot be trusted, binary or not.
    std::string content = slurpFile(path_);
    ASSERT_GE(content.size(), 56u);
    const std::string foreign = "vax-d128-be";
    content.replace(16, foreign.size() + 1, foreign + '\0');
    {
        std::ofstream out(path_, std::ios::trunc | std::ios::binary);
        out << content;
    }
    DiskCache reopened(path_);
    EXPECT_EQ(reopened.size(), 0u);
    EXPECT_TRUE(reopened.loadReport().quarantined);
    std::remove(reopened.loadReport().quarantinePath.c_str());
}

TEST_F(DiskCacheTest, CompactionIsByteIdenticalForAnEntrySet)
{
    const std::string other = path_ + ".b";
    {
        // Same entries, opposite insertion order: the appended files
        // differ...
        DiskCache one(path_);
        one.put("alpha", {1.0, 2.0});
        one.put("beta", {3.0});
        one.put("gamma", {});
        DiskCache two(other);
        two.put("gamma", {});
        two.put("beta", {3.0});
        two.put("alpha", {1.0, 2.0});
        EXPECT_NE(slurpFile(path_), slurpFile(other));
        // ...until compaction sorts by key: then the stores are
        // byte-identical, and compacting again changes nothing.
        EXPECT_TRUE(one.compact());
        EXPECT_TRUE(two.compact());
        const std::string bytes = slurpFile(path_);
        EXPECT_EQ(bytes, slurpFile(other));
        EXPECT_TRUE(one.compact());
        EXPECT_EQ(bytes, slurpFile(path_));
    }
    DiskCache reopened(path_);
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_EQ((*reopened.get("alpha"))[1], 2.0);
    std::remove(other.c_str());
    std::remove((other + ".tmp").c_str());
}

TEST_F(DiskCacheTest, RefreshFoldsInPeerAppends)
{
    DiskCache writer(path_);
    DiskCache reader(path_);
    EXPECT_EQ(reader.refresh(), 0u);

    writer.put("row1", {1.0});
    writer.put("row2", {2.0});
    EXPECT_FALSE(reader.get("row1").has_value());
    EXPECT_EQ(reader.refresh(), 2u);
    EXPECT_EQ((*reader.get("row1"))[0], 1.0);
    EXPECT_EQ((*reader.get("row2"))[0], 2.0);

    // The scan cursor advances: nothing is merged twice, and the
    // peers can take turns appending.
    EXPECT_EQ(reader.refresh(), 0u);
    reader.put("row3", {3.0});
    EXPECT_EQ(writer.refresh(), 1u);
    EXPECT_EQ((*writer.get("row3"))[0], 3.0);
}

TEST_F(DiskCacheTest, PersistCountersTrackAppendAmplification)
{
    DiskCache cache(path_);
    EXPECT_EQ(cache.bytesWritten(), 0u);
    cache.put("k1", {1.0});
    cache.put("k2", {2.0});
    cache.put("k3", {3.0});
    // Serial puts: one batch each, and the bytes written are exactly
    // the file size (header + three frames) — append-only I/O is
    // O(new entries), never a rewrite of the whole store.
    EXPECT_EQ(cache.appendBatches(), 3u);
    EXPECT_EQ(cache.entriesAppended(), 3u);
    EXPECT_EQ(cache.bytesWritten(), slurpFile(path_).size());
    EXPECT_EQ(cache.loadReport().bytesWritten, cache.bytesWritten());
}

TEST_F(DiskCacheTest, ForkedWritersShareOneStoreUnderFlock)
{
    // The cross-process hammer: N forked children append disjoint
    // keys to one store concurrently; flock serializes the appends
    // and every frame survives.
    constexpr int kWriters = 4;
    constexpr int kKeysPer = 8;
    std::vector<pid_t> kids;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: its own DiskCache instance on the shared path.
            {
                DiskCache mine(path_);
                for (int k = 0; k < kKeysPer; ++k) {
                    mine.put("w" + std::to_string(w) + "/k" +
                                 std::to_string(k),
                             {static_cast<double>(w),
                              static_cast<double>(k)});
                }
            }
            ::_exit(0);
        }
        kids.push_back(pid);
    }
    for (const pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), 0);
    }

    DiskCache merged(path_);
    EXPECT_EQ(merged.size(),
              static_cast<std::size_t>(kWriters * kKeysPer));
    EXPECT_EQ(merged.loadReport().entriesSkipped, 0u);
    EXPECT_FALSE(merged.loadReport().quarantined);
    for (int w = 0; w < kWriters; ++w) {
        for (int k = 0; k < kKeysPer; ++k) {
            const auto v = merged.get("w" + std::to_string(w) + "/k" +
                                      std::to_string(k));
            ASSERT_TRUE(v.has_value());
            EXPECT_EQ((*v)[0], static_cast<double>(w));
            EXPECT_EQ((*v)[1], static_cast<double>(k));
        }
    }
}

TEST_F(DiskCacheTest, GetValidatedRejectsWrongShape)
{
    DiskCache cache(path_);
    cache.put("k", {1.0, 2.0, 3.0});
    EXPECT_TRUE(cache.getValidated("k", 3).has_value());
    EXPECT_FALSE(cache.getValidated("k", 4).has_value());
    EXPECT_FALSE(cache.getValidated("missing", 3).has_value());
}

TEST_F(DiskCacheTest, GetValidatedRejectsNonFiniteValues)
{
    DiskCache cache(path_);
    cache.put("nan", {1.0, std::numeric_limits<double>::quiet_NaN()});
    cache.put("inf", {std::numeric_limits<double>::infinity(), 2.0});
    cache.put("neginf",
              {-std::numeric_limits<double>::infinity(), 2.0});
    cache.put("ok", {1.0, 2.0});

    // Raw get still serves the stored bits; the validated lookup —
    // the one sweep consumers use — treats non-finite as a miss so
    // pre-guard garbage gets recomputed instead of consumed.
    EXPECT_TRUE(cache.get("nan").has_value());
    EXPECT_FALSE(cache.getValidated("nan", 2).has_value());
    EXPECT_FALSE(cache.getValidated("inf", 2).has_value());
    EXPECT_FALSE(cache.getValidated("neginf", 2).has_value());
    EXPECT_TRUE(cache.getValidated("ok", 2).has_value());
}

TEST_F(DiskCacheTest, InjectedWriteFailureKeepsEntryInMemory)
{
    FaultInjector fi(3);
    fi.armProbability(FaultInjector::Point::CacheWriteFail, 1.0);
    DiskCache cache(path_, &fi);
    cache.put("k", {1.0});
    EXPECT_EQ(cache.persistFailures(), 1u);
    EXPECT_TRUE(cache.get("k").has_value());
    // Nothing reached disk.
    DiskCache reopened(path_);
    EXPECT_EQ(reopened.size(), 0u);
}

TEST_F(DiskCacheTest, DefaultPathHonorsCacheDirEnv)
{
    const auto pathUnder = [](const char *dir, const char *file) {
        test::Setting cache_dir(&RuntimeConfig::cacheDir, std::string(dir));
        return DiskCache::defaultPath(file);
    };
    EXPECT_EQ(pathUnder("", "ebm_results.cache"), "ebm_results.cache");
    EXPECT_EQ(pathUnder("/var/tmp/ebm", "ebm_results.cache"),
              "/var/tmp/ebm/ebm_results.cache");
    EXPECT_EQ(pathUnder("/var/tmp/ebm/", "x.cache"), "/var/tmp/ebm/x.cache");
}

TEST_F(DiskCacheTest, InjectedTruncationRecoversAllButLastEntry)
{
    {
        DiskCache cache(path_);
        for (int i = 0; i < 10; ++i)
            cache.put("key" + std::to_string(i),
                      {static_cast<double>(i)});
    }
    FaultInjector fi(3);
    fi.armAfter(FaultInjector::Point::CacheReadTruncate, 0, 1);
    DiskCache cache(path_, &fi);
    EXPECT_EQ(cache.size(), 9u);
    EXPECT_EQ(cache.loadReport().entriesSkipped, 1u);
}

// ---------------------------------------------------------------------
// Read-only degrade mode (EBM_CACHE_READONLY forces it, so the tests
// hold even where permission bits don't apply, e.g. running as root).
// ---------------------------------------------------------------------

TEST_F(DiskCacheTest, ReadOnlyModeServesEntriesAndRefusesAppends)
{
    {
        DiskCache cache(path_);
        cache.put("served", {1.0, 2.0});
        cache.sync();
    }
    const std::string before = slurpFile(path_);

    {
        test::Setting readonly(&RuntimeConfig::cacheReadOnly, true);
        DiskCache cache(path_);
        EXPECT_TRUE(cache.readOnly());
        EXPECT_TRUE(cache.loadReport().readOnlyMode);

        // Reads work: the store still serves its entries.
        ASSERT_TRUE(cache.get("served").has_value());
        EXPECT_EQ(cache.get("served")->size(), 2u);

        // Appends are refused with a structured error, but the entry
        // stays warm in memory for this process.
        const Status s = cache.tryPut("new", {3.0});
        ASSERT_FALSE(s.ok());
        EXPECT_EQ(s.error().code, Errc::CacheIo);
        EXPECT_NE(s.error().message.find("read-only"),
                  std::string::npos);
        EXPECT_TRUE(cache.get("new").has_value());
        EXPECT_EQ(cache.persistFailures(), 1u);

        // put() is tryPut with the status dropped — same refusal.
        cache.put("other", {4.0});
        EXPECT_EQ(cache.persistFailures(), 2u);

        // Compaction is refused without touching the file.
        EXPECT_FALSE(cache.compact());
    }

    EXPECT_EQ(slurpFile(path_), before)
        << "read-only mode must never write a byte";
    DiskCache reopened(path_);
    EXPECT_FALSE(reopened.readOnly());
    EXPECT_EQ(reopened.size(), 1u)
        << "refused appends must not leak to disk";
}

TEST_F(DiskCacheTest, ReadOnlyModeWithNoFileIsAnEmptyStore)
{
    test::Setting readonly(&RuntimeConfig::cacheReadOnly, true);
    DiskCache cache(path_);
    EXPECT_TRUE(cache.readOnly());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.get("anything").has_value());
    EXPECT_FALSE(cache.tryPut("k", {1.0}).ok());
}

TEST_F(DiskCacheTest, ReadOnlyModeLeavesTornTailOnDisk)
{
    {
        DiskCache cache(path_);
        cache.put("whole", {1.0});
        cache.put("torn", {2.0});
        cache.sync();
    }
    // Chop mid-frame: the online writable path would truncate this.
    std::string bytes = slurpFile(path_);
    bytes.resize(bytes.size() - 3);
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    {
        test::Setting readonly(&RuntimeConfig::cacheReadOnly, true);
        DiskCache cache(path_);
        EXPECT_EQ(cache.size(), 1u);
        EXPECT_TRUE(cache.loadReport().tornTailTruncated);
    }
    EXPECT_EQ(slurpFile(path_), bytes)
        << "read-only load must not repair the file";
}

// ---------------------------------------------------------------------
// Injected I/O faults through the shim seam (common/io_fault.hpp).
// ---------------------------------------------------------------------

TEST_F(DiskCacheTest, InjectedEnospcFailsAppendAndKeepsEntryInMemory)
{
    FaultInjector fi(11);
    // Query 0 is the header write of the first batch; failing it
    // fails the whole append.
    fi.armAfter(FaultInjector::Point::IoEnospc, 0, 1);
    DiskCache cache(path_, &fi);
    cache.put("k", {1.0});
    EXPECT_EQ(cache.persistFailures(), 1u);
    EXPECT_TRUE(cache.get("k").has_value());

    // The next put retries from scratch and succeeds.
    cache.put("k2", {2.0});
    cache.sync();
    DiskCache reopened(path_);
    EXPECT_TRUE(reopened.get("k2").has_value());
}

TEST_F(DiskCacheTest, InjectedShortWriteRollsBackTheTornBatch)
{
    {
        DiskCache cache(path_);
        cache.put("base", {1.0});
        cache.sync();
    }
    const std::string before = slurpFile(path_);

    FaultInjector fi(11);
    // Query 0 is the batch append (header already exists).
    fi.armAfter(FaultInjector::Point::IoShortWrite, 0, 1);
    DiskCache cache(path_, &fi);
    cache.put("torn", {2.0});
    EXPECT_EQ(cache.persistFailures(), 1u);
    EXPECT_EQ(slurpFile(path_), before)
        << "the partial append must be truncated away";

    // A clean store remains behind: full reload sees only the base.
    DiskCache reopened(path_);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_FALSE(reopened.loadReport().tornTailTruncated);
}

TEST_F(DiskCacheTest, InjectedFsyncFailureCountsAsPersistFailure)
{
    FaultInjector fi(11);
    fi.armAfter(FaultInjector::Point::IoFsyncFail, 0, 1);
    DiskCache cache(path_, &fi);
    cache.put("k", {1.0});
    EXPECT_EQ(cache.persistFailures(), 1u);
    // The batch write itself may have landed, but the cache refuses
    // to count unsynced bytes as durable; the rollback truncated it.
    DiskCache reopened(path_);
    EXPECT_EQ(reopened.size(), 0u);
}

TEST_F(DiskCacheTest, NotedFencingEpochIsEchoedIntoTheHeader)
{
    {
        DiskCache cache(path_);
        cache.put("pre", {1.0});
        cache.sync();
        EXPECT_EQ(cache.loadReport().fencingEpoch, 0u);

        cache.noteFencingEpoch(3);
        cache.noteFencingEpoch(2); // Max wins; lower epochs ignored.
        cache.put("post", {2.0});
        cache.sync();
    }
    {
        DiskCache reopened(path_);
        EXPECT_EQ(reopened.loadReport().fencingEpoch, 3u)
            << "appends after noteFencingEpoch stamp the header";
        // Compaction renders the store canonical: epoch zeroed.
        ASSERT_TRUE(reopened.compact());
    }
    DiskCache compacted(path_);
    EXPECT_EQ(compacted.loadReport().fencingEpoch, 0u);
    EXPECT_EQ(compacted.size(), 2u);
}

// ---------------------------------------------------------------------
// Lease hygiene: leases and their fencing epochs live in the elected
// coordinator's memory, so a leased fill leaves nothing beside the
// store, and compaction of a leased store is compaction of its
// entries — the same bytes an unleased fill compacts to.
// ---------------------------------------------------------------------

/** One leased fill of @p keys into @p cache, through the elected
 * local coordinator: acquire, put, publish, release, as the row-fill
 * engine does. */
void
leasedFill(DiskCache &cache, const std::vector<std::string> &keys)
{
    auto lease = makeLeaseProvider(cache);
    ASSERT_NE(lease, nullptr);
    ASSERT_STREQ(lease->kind(), "local");
    for (const std::string &key : keys) {
        ASSERT_TRUE(lease->tryAcquire(key));
        cache.put(key, {1.0});
        ASSERT_TRUE(lease->publish(key, {1.0}));
        ASSERT_TRUE(lease->release(key));
    }
}

/** The compacted bytes of an unleased store holding @p keys. */
std::string
unleasedCompactedBytes(const std::string &path,
                       const std::vector<std::string> &keys)
{
    std::string bytes;
    {
        DiskCache cache(path);
        for (const std::string &key : keys)
            cache.put(key, {1.0});
        EXPECT_TRUE(cache.compact());
        bytes = slurpFile(path);
    }
    std::remove(path.c_str());
    return bytes;
}

TEST_F(DiskCacheTest, CompactSweepsOrphanedEpochSidecars)
{
    const std::vector<std::string> keys = {"row/a", "row/b"};
    const std::string expected =
        unleasedCompactedBytes(path_ + ".ref", keys);

    DiskCache cache(path_);
    leasedFill(cache, keys);
    EXPECT_TRUE(test::filesBeside(path_).empty())
        << "a leased fill must leave no claim files or sidecars";

    // Even with a 1 ms staleness window there is nothing to sweep:
    // compaction is the same as for an unleased store.
    test::Setting window(&RuntimeConfig::claimStale,
                         std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(cache.compact());
    EXPECT_EQ(slurpFile(path_), expected);
    EXPECT_TRUE(test::filesBeside(path_).empty());
}

TEST_F(DiskCacheTest, CompactKeepsEpochSidecarsUnderLiveClaims)
{
    const std::string expected =
        unleasedCompactedBytes(path_ + ".ref", {"row/held"});

    DiskCache cache(path_);
    auto lease = makeLeaseProvider(cache);
    ASSERT_NE(lease, nullptr);
    ASSERT_TRUE(lease->tryAcquire("row/held"));
    cache.put("row/held", {1.0});
    cache.sync();

    // Compacting under a live lease neither touches the lease nor
    // writes anything but the canonical store.
    ASSERT_TRUE(cache.compact());
    EXPECT_EQ(slurpFile(path_), expected);
    EXPECT_TRUE(test::filesBeside(path_).empty());
    EXPECT_EQ(lease->ownedEpoch("row/held"), 1u);
    EXPECT_TRUE(lease->heartbeat("row/held"))
        << "compaction must not fence the live owner";
    EXPECT_TRUE(lease->release("row/held"));
}

/**
 * A damaged length field mid-file makes a frame run past the end of
 * the file, as a torn append would, but a valid frame still starts
 * after it: that is corruption. The store is quarantined byte for
 * byte, never truncated, and the frames before the damage are kept.
 */
TEST_F(DiskCacheTest, CorruptLengthMidFileIsQuarantinedNotTruncated)
{
    const std::vector<double> k0 = {0.5, 1.5, 2.5};
    {
        DiskCache cache(path_);
        cache.put("k0", k0);
        cache.put("k1", {3.5, 4.5, 5.5});
        cache.put("k2", {6.5, 7.5, 8.5});
        ASSERT_TRUE(cache.compact());
    }
    std::string bytes = slurpFile(path_);
    ASSERT_EQ(bytes.size(), 202u);
    // Flip bit 16 of frame 1's value count (frame head: magic, key
    // length, value count): the frame now claims 65,539 values.
    const std::size_t frame_bytes = (bytes.size() - storefmt::kHeaderSize) / 3;
    bytes[storefmt::kHeaderSize + frame_bytes + 8 + 2] ^= 0x01;
    writeFile(path_, bytes);

    {
        DiskCache reopened(path_);
        EXPECT_TRUE(reopened.loadReport().quarantined);
        EXPECT_FALSE(reopened.loadReport().tornTailTruncated);
        EXPECT_EQ(slurpFile(path_ + ".quarantined"), bytes)
            << "the damaged file is set aside untouched";
        const auto got = reopened.get("k0");
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, k0);
    }

    const FsckReport report = fsckStore(path_ + ".quarantined");
    EXPECT_EQ(report.badRegions, 1u);
    EXPECT_EQ(report.framesOk, 2u);
    EXPECT_FALSE(report.tornTail);
}

/**
 * Seeded mutations of a valid store — byte flips, truncations, copied
 * ranges, header bytes — never crash the loader, never serve a wrong
 * value, and never truncate away a frame that is still intact.
 */
TEST_F(DiskCacheTest, SeededMutationsKeepTheLoaderSafe)
{
    std::map<std::string, std::vector<double>> original;
    for (int i = 0; i < 20; ++i) {
        std::vector<double> values;
        for (int v = 0; v < i % 5; ++v) // i % 5 == 0: zero values.
            values.push_back(i * 10.0 + v + 0.25);
        original["mut/key" + std::to_string(i)] = values;
    }
    // One online-policy record: a counted TLP timeline ends it.
    RunResult online;
    online.apps = {{0.5, 0.25, 0.75, 0.125}, {1.5, 0.0625, 1.0, 0.5}};
    online.totalBw = 0.3125;
    online.measuredCycles = 200'000;
    online.finalTlp = {4, 8};
    online.samplesTaken = 12;
    online.tlpTimeline = {{6000, {1, 24}}, {7000, {4, 8}}, {40000, {2, 2}}};
    const std::string online_key = "online/mut/BLK_BFS/1";
    original[online_key] = encodeOnlineRecord(online);
    {
        DiskCache cache(path_);
        for (const auto &[key, values] : original)
            cache.put(key, values);
        ASSERT_TRUE(cache.compact());
    }
    const std::string clean = slurpFile(path_);

    // Where each original frame sits in the clean store.
    struct Span
    {
        std::size_t off = 0;
        std::size_t len = 0;
        std::string key;
    };
    std::vector<Span> spans;
    for (std::size_t off = storefmt::kHeaderSize; off < clean.size();) {
        storefmt::Frame frame;
        ASSERT_EQ(storefmt::parseFrameAt(clean.data(), off, clean.size(),
                                         frame),
                  storefmt::FrameParse::Ok);
        spans.push_back(Span{off, frame.bytes, frame.key});
        off += frame.bytes;
    }
    ASSERT_EQ(spans.size(), original.size());

    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        std::string bytes = clean;
        const std::uint64_t mutations = 1 + rng.nextBounded(4);
        for (std::uint64_t m = 0; m < mutations && !bytes.empty(); ++m) {
            switch (rng.nextBounded(4)) {
              case 0: // Flip one bit anywhere.
                bytes[rng.nextBounded(bytes.size())] ^=
                    static_cast<char>(1u << rng.nextBounded(8));
                break;
              case 1: // Truncate.
                bytes.resize(rng.nextBounded(bytes.size()));
                break;
              case 2: { // Copy a range over another place.
                const std::size_t len =
                    1 + rng.nextBounded(std::min<std::size_t>(
                            bytes.size(), 2 * spans[0].len));
                const std::size_t from =
                    rng.nextBounded(bytes.size() - len + 1);
                const std::size_t to =
                    rng.nextBounded(bytes.size() - len + 1);
                bytes.replace(to, len, bytes.substr(from, len));
                break;
              }
              default: // Change a header byte.
                if (bytes.size() >= storefmt::kHeaderSize) {
                    bytes[rng.nextBounded(storefmt::kHeaderSize)] ^=
                        static_cast<char>(1 + rng.nextBounded(255));
                }
                break;
            }
        }
        writeFile(path_, bytes);
        std::remove((path_ + ".quarantined").c_str());

        std::vector<const Span *> intact;
        for (const Span &span : spans) {
            if (span.off + span.len <= bytes.size() &&
                bytes.compare(span.off, span.len, clean, span.off,
                              span.len) == 0)
                intact.push_back(&span);
        }

        std::size_t served = 0;
        {
            // (a) No crash, no exception.
            std::optional<DiskCache> cache;
            EXPECT_NO_THROW(cache.emplace(path_));
            ASSERT_TRUE(cache.has_value());
            const DiskCache::LoadReport &report = cache->loadReport();

            // (b) Every key served carries exactly its values, and a
            // served online record still has its shape.
            for (const auto &[key, values] : original) {
                const auto got = cache->get(key);
                if (got.has_value()) {
                    EXPECT_EQ(*got, values) << key;
                    ++served;
                }
            }
            if (cache->get(online_key).has_value()) {
                EXPECT_TRUE(cache->getValidated(online_key,
                                                onlineRecordShape(2))
                                .has_value());
            }
            EXPECT_EQ(cache->size(), served) << "no foreign keys";

            // (c) A clean open serves every intact frame.
            if (!report.quarantined && !report.tornTailTruncated) {
                for (const Span *span : intact)
                    EXPECT_TRUE(cache->get(span->key).has_value())
                        << span->key;
            }
            // (d) A truncation never cuts away an intact frame.
            if (report.tornTailTruncated) {
                const std::size_t cut = slurpFile(path_).size();
                for (const Span *span : intact)
                    EXPECT_LT(span->off, cut) << span->key;
            }
        }

        // (e) Whatever the first open repaired stays repaired.
        DiskCache again(path_);
        EXPECT_FALSE(again.loadReport().tornTailTruncated);
        EXPECT_FALSE(again.loadReport().quarantined);
        EXPECT_EQ(again.size(), served);
    }
}

} // namespace
} // namespace ebm
