/**
 * @file
 * Differential test of TagArray against a reference tag store that
 * keeps the direct formulation: one array of way records (valid bit,
 * tag, owner, LRU stamp), walked way by way. Seeded random streams
 * (set counts with and without power-of-two indexing, 1-16 ways,
 * 1-4 apps, a small line pool so sets conflict) mix allocating and
 * non-allocating accesses, touches, probes, invalidations, flushes,
 * way partitions and snapshot/restore; after every operation both
 * must agree on its result and on every app's line count.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "mem/tag_array.hpp"

namespace ebm {
namespace {

/** The true-LRU tag store as an array of way records. */
class ReferenceTags
{
  public:
    explicit ReferenceTags(const CacheGeometry &geom)
        : numSets_(geom.numSets()),
          assoc_(geom.assoc),
          lineBytes_(geom.lineBytes),
          ways_(static_cast<std::size_t>(numSets_) * assoc_)
    {
    }

    TagLookup
    access(Addr line_addr, AppId app, bool allocate)
    {
        TagLookup result;
        Way *base = set(line_addr);
        ++useClock_;
        std::uint32_t victim_first = 0;
        std::uint32_t victim_end = assoc_;
        if (app < partitions_.size() && partitions_[app].count != 0) {
            victim_first = partitions_[app].first;
            victim_end = victim_first + partitions_[app].count;
        }
        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == line_addr) {
                way.lastUse = useClock_;
                result.hit = true;
                return result;
            }
            if (w < victim_first || w >= victim_end)
                continue;
            if (!way.valid) {
                if (!victim || victim->valid)
                    victim = &way;
            } else if (!victim || (victim->valid &&
                                   way.lastUse < victim->lastUse)) {
                victim = &way;
            }
        }
        if (!allocate || victim == nullptr)
            return result;
        if (victim->valid) {
            result.evictedValid = true;
            result.evictedLine = victim->tag;
            result.evictedApp = victim->app;
        }
        *victim = Way{true, line_addr, app, useClock_};
        return result;
    }

    bool
    probe(Addr line_addr)
    {
        return find(line_addr) != nullptr;
    }

    bool
    touch(Addr line_addr)
    {
        Way *way = find(line_addr);
        if (way == nullptr)
            return false;
        way->lastUse = ++useClock_;
        return true;
    }

    bool
    invalidate(Addr line_addr)
    {
        Way *way = find(line_addr);
        if (way == nullptr)
            return false;
        way->valid = false;
        return true;
    }

    std::uint32_t
    linesOwnedBy(AppId app) const
    {
        std::uint32_t n = 0;
        for (const Way &way : ways_)
            n += way.valid && way.app == app ? 1 : 0;
        return n;
    }

    void
    flush()
    {
        for (Way &way : ways_)
            way.valid = false;
        useClock_ = 0;
    }

    void
    setWayPartition(AppId app, std::uint32_t first, std::uint32_t count)
    {
        if (partitions_.size() <= app)
            partitions_.resize(app + 1);
        partitions_[app] = TagArray::WayRange{first, count};
    }

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        AppId app = kInvalidApp;
        std::uint64_t lastUse = 0;
    };

    Way *
    set(Addr line_addr)
    {
        const auto s = static_cast<std::uint32_t>(
            (line_addr / lineBytes_) % numSets_);
        return &ways_[static_cast<std::size_t>(s) * assoc_];
    }

    Way *
    find(Addr line_addr)
    {
        Way *base = set(line_addr);
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].tag == line_addr)
                return &base[w];
        }
        return nullptr;
    }

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint64_t useClock_ = 0;
    std::vector<Way> ways_;
    std::vector<TagArray::WayRange> partitions_;
};

/** How often the streams reached the paths worth covering. */
struct Coverage
{
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t partitionedAllocs = 0;
    std::uint64_t restores = 0;
};

/** Run one seeded stream; stops at the first divergence. */
void
runStream(std::uint64_t seed, Coverage &cov)
{
    Rng rng(seed);
    CacheGeometry geom;
    geom.lineBytes = rng.nextBounded(2) == 0 ? 128 : 96;
    geom.assoc = 1 + static_cast<std::uint32_t>(rng.nextBounded(16));
    const auto sets = static_cast<std::uint32_t>(
        rng.nextBounded(2) == 0 ? 1u << rng.nextBounded(5)
                                : 1 + rng.nextBounded(12));
    geom.sizeBytes = sets * geom.assoc * geom.lineBytes;
    const auto apps = static_cast<AppId>(1 + rng.nextBounded(4));
    // Twice the capacity in distinct lines: sets overflow and refill.
    const std::uint64_t lines = 2ull * sets * geom.assoc;

    auto dut = std::make_unique<TagArray>(geom);
    ReferenceTags ref(geom);
    TagArray::Snapshot saved = dut->snapshot();
    ReferenceTags savedRef = ref;
    bool partitioned = false;

    for (int op = 0; op < 3000; ++op) {
        const Addr line = rng.nextBounded(lines) * geom.lineBytes;
        const auto app = static_cast<AppId>(rng.nextBounded(apps));
        const std::uint64_t kind = rng.nextBounded(100);
        if (kind < 50) {
            const bool allocate = kind < 42;
            const TagLookup got = dut->access(line, app, allocate);
            const TagLookup want = ref.access(line, app, allocate);
            ASSERT_EQ(got.hit, want.hit) << "seed " << seed << " op " << op;
            ASSERT_EQ(got.evictedValid, want.evictedValid)
                << "seed " << seed << " op " << op;
            ASSERT_EQ(got.evictedLine, want.evictedLine)
                << "seed " << seed << " op " << op;
            ASSERT_EQ(got.evictedApp, want.evictedApp)
                << "seed " << seed << " op " << op;
            cov.hits += want.hit;
            cov.evictions += want.evictedValid;
            cov.partitionedAllocs += partitioned && allocate && !want.hit;
        } else if (kind < 65) {
            ASSERT_EQ(dut->touch(line), ref.touch(line)) << "seed " << seed;
        } else if (kind < 75) {
            ASSERT_EQ(dut->probe(line), ref.probe(line)) << "seed " << seed;
        } else if (kind < 88) {
            ASSERT_EQ(dut->invalidate(line), ref.invalidate(line))
                << "seed " << seed;
        } else if (kind < 89) {
            dut->flush();
            ref.flush();
        } else if (kind < 92) {
            const auto first =
                static_cast<std::uint32_t>(rng.nextBounded(geom.assoc));
            const auto count = static_cast<std::uint32_t>(
                1 + rng.nextBounded(geom.assoc - first));
            dut->setWayPartition(app, first, count);
            ref.setWayPartition(app, first, count);
            partitioned = true;
        } else if (kind < 96) {
            saved = dut->snapshot();
            savedRef = ref;
        } else {
            // Restore the saved state into a fresh array or in place.
            if (kind < 98)
                dut = std::make_unique<TagArray>(geom);
            dut->restore(saved);
            ref = savedRef;
            ++cov.restores;
        }
        for (AppId a = 0; a < apps; ++a) {
            ASSERT_EQ(dut->linesOwnedBy(a), ref.linesOwnedBy(a))
                << "seed " << seed << " op " << op << " app " << a;
        }
    }
}

TEST(TagArrayOracle, StructureOfArraysMatchesWayRecords)
{
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        runStream(seed, cov);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "first divergent stream: seed " << seed;
            return;
        }
    }
    // The streams must reach the paths the layout could get wrong.
    EXPECT_GT(cov.hits, 100000u);
    EXPECT_GT(cov.evictions, 100000u);
    EXPECT_GT(cov.partitionedAllocs, 10000u);
    EXPECT_GT(cov.restores, 10000u);
    std::printf("coverage: %llu hits, %llu evictions, %llu partitioned "
                "allocations, %llu restores\n",
                static_cast<unsigned long long>(cov.hits),
                static_cast<unsigned long long>(cov.evictions),
                static_cast<unsigned long long>(cov.partitionedAllocs),
                static_cast<unsigned long long>(cov.restores));
}

} // namespace
} // namespace ebm
