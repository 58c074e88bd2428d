/**
 * @file
 * Set-associative tag array with true-LRU replacement.
 *
 * Shared by L1 data caches and L2 slices. Tags remember the owning
 * application of the line so cache-occupancy statistics can attribute
 * inter-application interference.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace ebm {

/** Result of a tag probe-and-allocate operation. */
struct TagLookup
{
    bool hit = false;
    bool evictedValid = false;  ///< An existing line was displaced.
    Addr evictedLine = 0;       ///< Line address displaced (if any).
    AppId evictedApp = kInvalidApp;
};

/** Set-associative, true-LRU tag store. */
class TagArray
{
  public:
    explicit TagArray(const CacheGeometry &geom);

    /**
     * Probe for @p line_addr; on miss, optionally allocate it,
     * evicting the LRU way.
     *
     * @param line_addr line-aligned byte address
     * @param app       owning application (recorded on allocate)
     * @param allocate  whether a miss installs the line
     * @return hit/eviction outcome
     */
    TagLookup access(Addr line_addr, AppId app, bool allocate);

    /** Probe without changing any state. */
    bool probe(Addr line_addr) const;

    /**
     * Probe and, on a hit, refresh the line's LRU position — one set
     * walk instead of probe() + access(). The use clock advances only
     * on a hit, exactly as the probe-then-access sequence it replaces.
     */
    bool touch(Addr line_addr);

    /** Invalidate a line if present. @return true if it was present. */
    bool invalidate(Addr line_addr);

    /** Number of valid lines currently owned by @p app. */
    std::uint32_t linesOwnedBy(AppId app) const;

    /** Invalidate everything (kernel relaunch / new run). */
    void flush();

    /**
     * Restrict @p app's allocations to ways [first, first+count).
     * Lookups still hit in any way (a partition change must not lose
     * resident lines); only victim selection is constrained. Used for
     * the Section VI-D L2-partitioning sensitivity study.
     */
    void setWayPartition(AppId app, std::uint32_t first,
                         std::uint32_t count);

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }

    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        AppId app = kInvalidApp;
        std::uint64_t lastUse = 0;
    };

    /** Allocation way range of one app (whole array by default). */
    struct WayRange
    {
        std::uint32_t first = 0;
        std::uint32_t count = 0; ///< 0 = unrestricted.
    };

    /**
     * Full mutable state: tag contents, LRU clock, and the way
     * partitions (a knob, so a restored machine reproduces the
     * partitioned victim selection exactly). Geometry is immutable
     * per instance and is validated on restore instead of copied.
     */
    struct Snapshot
    {
        std::uint64_t useClock = 0;
        std::vector<Way> ways;
        std::vector<WayRange> partitions;

        std::size_t
        heapBytes() const
        {
            return ways.capacity() * sizeof(Way) +
                   partitions.capacity() * sizeof(WayRange);
        }
    };

    Snapshot
    snapshot() const
    {
        return Snapshot{useClock_, ways_, partitions_};
    }

    void restore(const Snapshot &snap);

  private:
    std::uint32_t setIndex(Addr line_addr) const;

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    /** Line size and set count are powers of two (stock geometries):
     *  setIndex is then a shift+mask instead of two divisions. */
    bool fastIndex_;
    std::uint32_t lineShift_;
    std::uint64_t useClock_ = 0;
    std::vector<Way> ways_; ///< numSets_ x assoc_, row-major.
    std::vector<WayRange> partitions_; ///< Indexed by AppId.
};

} // namespace ebm
