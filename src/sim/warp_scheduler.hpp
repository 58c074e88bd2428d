/**
 * @file
 * Warp issue arbitration: GTO (greedy-then-oldest) priority logic
 * wrapped by the SWL (static wavefront limiting) TLP filter.
 *
 * GTO keeps issuing from the last-issued warp while it stays ready,
 * otherwise falls back to the oldest ready warp. SWL exposes only the
 * first `tlpLimit` warp contexts of the scheduler to the GTO logic —
 * the warp-granularity TLP knob every scheme in the paper turns.
 *
 * Readiness is tracked incrementally: the owning core reports warp
 * ready/blocked transitions as they happen (issue, fill, wakeup) via
 * setReady(), and the scheduler keeps them in a bitmask ordered by
 * age position. pickReady() is then a masked find-first-set instead
 * of a per-pick rescan of every warp context. A second mask, of warps
 * waiting on off-chip loads, makes the idle-cycle memory-wait test
 * (anyActiveOffchip) one mask test as well.
 */
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace ebm {

/** One warp issue arbiter (a core has schedulersPerCore of these). */
class WarpScheduler
{
  public:
    /**
     * @param warp_ids  hardware warp contexts owned by this scheduler,
     *                  in age order (index 0 = oldest); at most 64
     * @param tlp_limit initial SWL limit (warps exposed to GTO)
     */
    WarpScheduler(std::vector<WarpId> warp_ids, std::uint32_t tlp_limit);

    /**
     * Pick the next warp to issue from, in GTO order, among the first
     * tlpLimit() warps, using the incrementally maintained ready
     * mask. @return the warp id, or kNoWarp if none is ready.
     */
    WarpId pickReady() const;

    /**
     * Record that the warp at age position @p pos actually issued
     * (updates the greedy state).
     */
    void issuedAt(std::uint32_t pos)
    {
        lastIssued_ = warpIds_[pos];
        lastPos_ = pos;
    }

    /**
     * Report the readiness of the warp at age position @p pos (its
     * index in the constructor's warp_ids). Maintained by the owning
     * core on every issue/wakeup transition.
     */
    void
    setReady(std::uint32_t pos, bool ready)
    {
        if (ready)
            readyMask_ |= 1ull << pos;
        else
            readyMask_ &= ~(1ull << pos);
    }

    /**
     * Report whether the warp at age position @p pos has off-chip
     * loads outstanding. Maintained by the owning core wherever that
     * count changes; not part of Snapshot (the core re-derives it).
     */
    void
    setOffchip(std::uint32_t pos, bool waiting)
    {
        if (waiting)
            offchipMask_ |= 1ull << pos;
        else
            offchipMask_ &= ~(1ull << pos);
    }

    /** Any warp inside the SWL window waiting on an off-chip load? */
    bool
    anyActiveOffchip() const
    {
        return (offchipMask_ & windowMask()) != 0;
    }

    /** Change the SWL limit (clamped to the context count). */
    void setTlpLimit(std::uint32_t limit);

    /** Forget the greedy pointer (core reset / kernel relaunch). */
    void
    resetGreedy()
    {
        lastIssued_ = kNoWarp;
        lastPos_ = kNoPos;
    }

    std::uint32_t tlpLimit() const { return tlpLimit_; }

    static constexpr WarpId kNoWarp = 0xffffffffu;

    /**
     * Mutable arbiter state: the SWL limit (a knob, so a restored
     * machine replays the same windowed picks), the incremental ready
     * mask, and the GTO greedy pointer. The warp-id age order is
     * immutable per instance. The off-chip mask is left out:
     * restore() keeps it, and the owning core re-derives it from its
     * warps' outstanding counts.
     */
    struct Snapshot
    {
        std::uint32_t tlpLimit = 0;
        std::uint64_t readyMask = 0;
        WarpId lastIssued = kNoWarp;
        std::uint32_t lastPos = 0;
    };

    Snapshot
    snapshot() const
    {
        return Snapshot{tlpLimit_, readyMask_, lastIssued_, lastPos_};
    }

    void
    restore(const Snapshot &snap)
    {
        tlpLimit_ = snap.tlpLimit;
        readyMask_ = snap.readyMask;
        lastIssued_ = snap.lastIssued;
        lastPos_ = snap.lastPos;
    }

  private:
    static constexpr std::uint32_t kNoPos = 0xffffffffu;

    std::uint64_t
    windowMask() const
    {
        return tlpLimit_ >= 64 ? ~0ull : (1ull << tlpLimit_) - 1;
    }

    std::vector<WarpId> warpIds_; ///< Age order.
    std::uint32_t tlpLimit_;
    std::uint64_t readyMask_ = 0; ///< Bit i: warpIds_[i] can issue.
    /** Bit i: warpIds_[i] has off-chip loads outstanding. */
    std::uint64_t offchipMask_ = 0;
    WarpId lastIssued_ = kNoWarp;
    std::uint32_t lastPos_ = kNoPos;
};

} // namespace ebm
