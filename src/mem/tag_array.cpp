#include "mem/tag_array.hpp"

#include <bit>

#include "common/log.hpp"

namespace ebm {

TagArray::TagArray(const CacheGeometry &geom)
    : numSets_(geom.numSets()),
      assoc_(geom.assoc),
      lineBytes_(geom.lineBytes),
      fastIndex_(std::has_single_bit(lineBytes_) &&
                 std::has_single_bit(numSets_)),
      lineShift_(
          static_cast<std::uint32_t>(std::countr_zero(lineBytes_))),
      ways_(static_cast<std::size_t>(geom.numSets()) * geom.assoc)
{
    if (numSets_ == 0 || assoc_ == 0)
        fatal("TagArray: degenerate geometry");
}

std::uint32_t
TagArray::setIndex(Addr line_addr) const
{
    if (fastIndex_) {
        return static_cast<std::uint32_t>(line_addr >> lineShift_) &
               (numSets_ - 1);
    }
    return static_cast<std::uint32_t>((line_addr / lineBytes_) % numSets_);
}

TagLookup
TagArray::access(Addr line_addr, AppId app, bool allocate)
{
    TagLookup result;
    const std::uint32_t set = setIndex(line_addr);
    Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    ++useClock_;

    // Victim selection honours the app's way partition (if any);
    // hits are permitted in any way.
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
    victim->valid = true;
    victim->tag = line_addr;
    victim->app = app;
    victim->lastUse = useClock_;
    return result;
}

bool
TagArray::probe(Addr line_addr) const
{
    const std::uint32_t set = setIndex(line_addr);
    const Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line_addr)
            return true;
    }
    return false;
}

bool
TagArray::touch(Addr line_addr)
{
    const std::uint32_t set = setIndex(line_addr);
    Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line_addr) {
            base[w].lastUse = ++useClock_;
            return true;
        }
    }
    return false;
}

bool
TagArray::invalidate(Addr line_addr)
{
    const std::uint32_t set = setIndex(line_addr);
    Way *base = &ways_[static_cast<std::size_t>(set) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line_addr) {
            base[w].valid = false;
            return true;
        }
    }
    return false;
}

std::uint32_t
TagArray::linesOwnedBy(AppId app) const
{
    std::uint32_t count = 0;
    for (const Way &way : ways_) {
        if (way.valid && way.app == app)
            ++count;
    }
    return count;
}

void
TagArray::flush()
{
    for (Way &way : ways_)
        way.valid = false;
    useClock_ = 0;
}

void
TagArray::restore(const Snapshot &snap)
{
    if (snap.ways.size() != ways_.size())
        fatal("TagArray: snapshot geometry mismatch");
    useClock_ = snap.useClock;
    ways_ = snap.ways;
    partitions_ = snap.partitions;
}

void
TagArray::setWayPartition(AppId app, std::uint32_t first,
                          std::uint32_t count)
{
    if (count == 0 || first + count > assoc_)
        fatal("TagArray: way partition out of range");
    if (partitions_.size() <= app)
        partitions_.resize(app + 1);
    partitions_[app] = WayRange{first, count};
}

} // namespace ebm
