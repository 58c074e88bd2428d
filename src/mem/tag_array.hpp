/**
 * @file
 * Set-associative tag array with true-LRU replacement.
 *
 * Shared by L1 data caches and L2 slices. Tags remember the owning
 * application of the line so cache-occupancy statistics can attribute
 * inter-application interference.
 */
#pragma once

#include <cstddef>
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
        std::vector<Addr> tags;
        std::vector<std::uint64_t> lastUse;
        std::vector<AppId> owners;
        std::vector<WayRange> partitions;

        std::size_t
        heapBytes() const
        {
            return tags.capacity() * sizeof(Addr) +
                   lastUse.capacity() * sizeof(std::uint64_t) +
                   owners.capacity() * sizeof(AppId) +
                   partitions.capacity() * sizeof(WayRange);
        }
    };

    Snapshot
    snapshot() const
    {
        return Snapshot{useClock_, tags_, lastUse_, owners_, partitions_};
    }

    void restore(const Snapshot &snap);

  private:
    /** Tag of an invalid way: no line-aligned address equals it. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /** Index of the first way of @p line_addr's set. */
    std::size_t setBase(Addr line_addr) const;

    /** Index of the way holding @p line_addr, or kAbsent. */
    std::size_t find(std::size_t base, Addr line_addr) const;

    static constexpr std::size_t kAbsent = ~std::size_t{0};

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    /** Line size and set count are powers of two (stock geometries):
     *  setIndex is then a shift+mask instead of two divisions. */
    bool fastIndex_;
    std::uint32_t lineShift_;
    std::uint64_t useClock_ = 0;
    /**
     * Structure of arrays, numSets_ x assoc_ each, row-major: a hit
     * check scans one set's tags contiguously.
     */
    std::vector<Addr> tags_; ///< kInvalidTag marks an invalid way.
    /** LRU stamp: useClock_ at the last use (>= 1), 0 if invalid. */
    std::vector<std::uint64_t> lastUse_;
    std::vector<AppId> owners_; ///< App that allocated the line.
    std::vector<WayRange> partitions_; ///< Indexed by AppId.
};

} // namespace ebm
