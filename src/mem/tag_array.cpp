#include "mem/tag_array.hpp"

#include <algorithm>
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
      tags_(static_cast<std::size_t>(geom.numSets()) * geom.assoc,
            kInvalidTag),
      lastUse_(tags_.size(), 0),
      owners_(tags_.size(), kInvalidApp)
{
    if (numSets_ == 0 || assoc_ == 0)
        fatal("TagArray: degenerate geometry");
}

std::size_t
TagArray::setBase(Addr line_addr) const
{
    const std::uint32_t set =
        fastIndex_
            ? static_cast<std::uint32_t>(line_addr >> lineShift_) &
                  (numSets_ - 1)
            : static_cast<std::uint32_t>((line_addr / lineBytes_) %
                                         numSets_);
    return static_cast<std::size_t>(set) * assoc_;
}

std::size_t
TagArray::find(std::size_t base, Addr line_addr) const
{
    const Addr *tags = &tags_[base];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (tags[w] == line_addr)
            return base + w;
    }
    return kAbsent;
}

TagLookup
TagArray::access(Addr line_addr, AppId app, bool allocate)
{
    TagLookup result;
    const std::size_t base = setBase(line_addr);
    ++useClock_;

    // Hits are permitted in any way.
    const std::size_t way = find(base, line_addr);
    if (way != kAbsent) {
        lastUse_[way] = useClock_;
        result.hit = true;
        return result;
    }
    if (!allocate)
        return result;

    // Victim selection honours the app's way partition (if any): the
    // first invalid way in range, else its first least-recently-used.
    // Invalid ways carry stamp 0 and valid ones >= 1, so that is the
    // first minimum stamp.
    std::size_t first = base;
    std::size_t end = base + assoc_;
    if (app < partitions_.size() && partitions_[app].count != 0) {
        first = base + partitions_[app].first;
        end = first + partitions_[app].count;
    }
    std::size_t victim = first;
    for (std::size_t w = first + 1; w < end; ++w) {
        if (lastUse_[w] < lastUse_[victim])
            victim = w;
    }

    if (tags_[victim] != kInvalidTag) {
        result.evictedValid = true;
        result.evictedLine = tags_[victim];
        result.evictedApp = owners_[victim];
    }
    tags_[victim] = line_addr;
    owners_[victim] = app;
    lastUse_[victim] = useClock_;
    return result;
}

bool
TagArray::probe(Addr line_addr) const
{
    return find(setBase(line_addr), line_addr) != kAbsent;
}

bool
TagArray::touch(Addr line_addr)
{
    const std::size_t way = find(setBase(line_addr), line_addr);
    if (way == kAbsent)
        return false;
    lastUse_[way] = ++useClock_;
    return true;
}

bool
TagArray::invalidate(Addr line_addr)
{
    const std::size_t way = find(setBase(line_addr), line_addr);
    if (way == kAbsent)
        return false;
    tags_[way] = kInvalidTag;
    lastUse_[way] = 0;
    return true;
}

std::uint32_t
TagArray::linesOwnedBy(AppId app) const
{
    std::uint32_t count = 0;
    for (std::size_t w = 0; w < tags_.size(); ++w) {
        if (tags_[w] != kInvalidTag && owners_[w] == app)
            ++count;
    }
    return count;
}

void
TagArray::flush()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    useClock_ = 0;
}

void
TagArray::restore(const Snapshot &snap)
{
    if (snap.tags.size() != tags_.size() ||
        snap.lastUse.size() != tags_.size() ||
        snap.owners.size() != tags_.size())
        fatal("TagArray: snapshot geometry mismatch");
    useClock_ = snap.useClock;
    tags_ = snap.tags;
    lastUse_ = snap.lastUse;
    owners_ = snap.owners;
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
