#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "mem/tag_array.hpp"
#include "sim/gpu.hpp"

namespace ebm {
namespace {

CacheGeometry
geom(std::uint32_t sets = 2, std::uint32_t assoc = 4)
{
    CacheGeometry g;
    g.lineBytes = 128;
    g.assoc = assoc;
    g.sizeBytes = sets * assoc * g.lineBytes;
    return g;
}

Addr
lineIn(const CacheGeometry &g, std::uint32_t set, std::uint32_t tag)
{
    return (static_cast<Addr>(tag) * g.numSets() + set) * g.lineBytes;
}

TEST(WayPartition, AllocationConfinedToOwnWays)
{
    const auto g = geom(1, 4);
    TagArray tags(g);
    tags.setWayPartition(0, 0, 2);
    tags.setWayPartition(1, 2, 2);

    // App 0 fills far more lines than its 2 ways can hold.
    for (std::uint32_t t = 1; t <= 6; ++t)
        tags.access(lineIn(g, 0, t), 0, true);
    EXPECT_LE(tags.linesOwnedBy(0), 2u);

    // App 1's ways were untouched, so its fills evict nothing of
    // app 0's residue.
    tags.access(lineIn(g, 0, 100), 1, true);
    tags.access(lineIn(g, 0, 101), 1, true);
    EXPECT_EQ(tags.linesOwnedBy(1), 2u);
    EXPECT_LE(tags.linesOwnedBy(0) + tags.linesOwnedBy(1), 4u);
}

TEST(WayPartition, HitsAllowedInForeignWays)
{
    const auto g = geom(1, 4);
    TagArray tags(g);
    // App 0 installs a line with no partition in force.
    tags.access(lineIn(g, 0, 1), 0, true);
    // Partition now excludes the way that line sits in — lookups must
    // still hit (partition changes must not lose resident data).
    tags.setWayPartition(0, 2, 2);
    EXPECT_TRUE(tags.access(lineIn(g, 0, 1), 0, true).hit);
}

TEST(WayPartition, UnpartitionedAppUsesAllWays)
{
    const auto g = geom(1, 4);
    TagArray tags(g);
    tags.setWayPartition(1, 0, 2); // Only app 1 is restricted.
    for (std::uint32_t t = 1; t <= 4; ++t)
        tags.access(lineIn(g, 0, t), 0, true);
    EXPECT_EQ(tags.linesOwnedBy(0), 4u);
}

TEST(WayPartitionDeath, OutOfRangeIsFatal)
{
    TagArray tags(geom(1, 4));
    EXPECT_EBM_FATAL(tags.setWayPartition(0, 2, 3), "out of range");
    EXPECT_EBM_FATAL(tags.setWayPartition(0, 0, 0), "out of range");
}

TEST(WayPartition, GpuLevelPartitionIsolatesL2Capacity)
{
    // Giving the cache-sensitive app a protected L2 share must not
    // hurt (and usually helps) its L2 miss rate under a streaming
    // co-runner.
    GpuConfig cfg = test::tinyConfig(2);
    std::vector<AppProfile> apps = {test::streamingApp(),
                                    test::cacheApp()};

    Gpu shared(cfg, apps);
    shared.run(8000);

    Gpu split(cfg, apps);
    const std::uint32_t half = cfg.l2Slice.assoc / 2;
    split.setAppL2WayPartition(0, 0, half);
    split.setAppL2WayPartition(1, half, cfg.l2Slice.assoc - half);
    split.run(8000);

    EXPECT_LE(split.appL2MissRate(1), shared.appL2MissRate(1) + 0.03);
}

} // namespace
} // namespace ebm
