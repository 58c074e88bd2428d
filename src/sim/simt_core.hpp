/**
 * @file
 * One SIMT core (compute unit / streaming multiprocessor): warp
 * contexts, two GTO+SWL issue arbiters, an L1 data cache with MSHRs,
 * and the load/store path into the crossbar. Each core belongs to
 * exactly one application (the paper's exclusive core partitioning).
 *
 * Hot-path structure: each warp's next instruction is decoded once
 * per instruction-pointer advance and cached (TraceGen::instrAt is a
 * hash cascade, so re-decoding per readiness probe is the dominant
 * issue-stage cost), and warp readiness is pushed into the
 * schedulers' ready masks on every transition instead of re-derived
 * per pick.
 *
 * A core whose issue cycle provably repeats (nothing issued, every
 * pick a load parked on an MSHR stall at the current L1 generation)
 * reports itself parked: until a warp, its SWL limit or the L1
 * generation changes, each cycle would only replay that cycle's
 * counter increments. The owning Gpu then stops calling tickIssue and
 * adds the parked span in one addParkedCycles call when it wakes the
 * core (a fill or L1-hit completion, a knob, reset, restore) or
 * returns to its caller. The core cannot wake itself, so every change
 * to its warps or knobs goes through the Gpu.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/ring_buffer.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "interconnect/crossbar.hpp"
#include "mem/address_map.hpp"
#include "mem/cache.hpp"
#include "mem/mem_request.hpp"
#include "sim/warp.hpp"
#include "sim/warp_scheduler.hpp"
#include "workload/trace_gen.hpp"

namespace ebm {

/** One SIMT core running one application's warps. */
class SimtCore
{
  public:
    /**
     * @param cfg    shared GPU configuration
     * @param amap   global address map
     * @param id     global core id (also the crossbar input port)
     * @param app    owning application
     * @param tracer instruction/address generator of the application
     */
    SimtCore(const GpuConfig &cfg, const AddressMap &amap, CoreId id,
             AppId app, const TraceGen *tracer);

    /** What one issue cycle left for the GPU's park and wake sets. */
    struct IssueCycle
    {
        /**
         * Nothing issued and every failed pick, if any, was a load
         * parked at the current L1 generation: every later cycle
         * repeats this one until a warp is refreshed (fill, L1-hit
         * completion, reset, restore), the SWL limit changes or the
         * L1 generation moves (fill, L1-bypass flip).
         */
        bool parked = false;
        /** An L1 hit queued a completion due l1HitLatency later. */
        bool hitQueued = false;
    };

    /** Issue stage for one core cycle. */
    IssueCycle tickIssue(Cycle now, Crossbar &xbar);

    /**
     * Add @p cycles repeats of the last tickIssue cycle, which must
     * have reported parked: idle, plus stall and memory-wait if that
     * cycle added them. Touches nothing else.
     */
    void
    addParkedCycles(Cycle cycles)
    {
        idleCycles_.add(cycles);
        if (parkedStall_)
            stallCycles_.add(cycles);
        if (parkedMemWait_)
            memWaitCycles_.add(cycles);
    }

    /**
     * Accept memory responses arriving from the crossbar. Returns
     * whether any fill or L1-hit completion was absorbed.
     */
    bool tickResponses(Cycle now, Crossbar &xbar);

    /** readyAt of the earliest queued L1-hit completion, or never. */
    Cycle
    nextCompletionAt() const
    {
        return localPending_.empty() ? kNeverCycle
                                     : localPending_.front().readyAt;
    }

    /** Apply a new per-scheduler TLP limit (the SWL knob). */
    void setTlpLimit(std::uint32_t warps_per_scheduler);
    std::uint32_t tlpLimit() const { return schedulers_[0].tlpLimit(); }

    /** Enable/disable L1 bypass for this core (Mod+Bypass). */
    void setL1Bypass(bool bypass)
    {
        // The knob changes whether a stalled load would probe the
        // tags on retry, so stalled warps must re-attempt.
        if (bypass != bypassL1_)
            l1_.bumpGeneration();
        bypassL1_ = bypass;
    }
    bool l1Bypass() const { return bypassL1_; }

    /** Enable/disable L2 bypass for this core's requests. */
    void setL2Bypass(bool bypass) { bypassL2_ = bypass; }
    bool l2Bypass() const { return bypassL2_; }

    CoreId id() const { return id_; }
    AppId app() const { return app_; }

    /** Warp instructions retired (for IPC). */
    std::uint64_t instrsRetired() const { return instrsRetired_.total(); }
    std::uint64_t windowInstrsRetired() const
    {
        return instrsRetired_.sinceCheckpoint();
    }

    const Cache &l1() const { return l1_; }

    /** Cycles in which no scheduler could issue (DynCTA's signal). */
    std::uint64_t idleCycles() const { return idleCycles_.total(); }
    std::uint64_t windowIdleCycles() const
    {
        return idleCycles_.sinceCheckpoint();
    }
    /** Idle cycles where some warp was blocked on memory. */
    std::uint64_t memWaitCycles() const { return memWaitCycles_.total(); }
    std::uint64_t windowMemWaitCycles() const
    {
        return memWaitCycles_.sinceCheckpoint();
    }

    /**
     * Cycles where a ready warp could not issue because of downstream
     * back-pressure (interconnect or MSHR full) — the congestion
     * signal local TLP heuristics react to.
     */
    std::uint64_t stallCycles() const { return stallCycles_.total(); }
    std::uint64_t windowStallCycles() const
    {
        return stallCycles_.sinceCheckpoint();
    }

    /** L1 misses that hit the victim tags (lost locality; CCWS). */
    std::uint64_t lostLocality() const { return lostLocality_.total(); }
    std::uint64_t windowLostLocality() const
    {
        return lostLocality_.sinceCheckpoint();
    }

    /** Start a new sampling window on all core counters. */
    void checkpoint();

    /** Clear warps, L1, and counters (new run / kernel relaunch). */
    void reset(bool flush_l1);

    struct LocalCompletion
    {
        Cycle readyAt;
        WarpId warp;
    };

    /**
     * Everything a core mutates: warp contexts (including per-warp
     * stall generations), scheduler masks and SWL limits, the per-warp
     * decoded-instruction cache, the L1 (tags + MSHRs + stats +
     * generation), the CCWS victim tags, L1-hit completions in flight,
     * the bypass knobs, and all counters with their window marks. The
     * config/address-map/tracer references are wiring, not state.
     */
    struct Snapshot
    {
        bool bypassL1 = false;
        bool bypassL2 = false;
        std::vector<WarpState> warps;
        std::vector<WarpScheduler::Snapshot> schedulers;
        std::vector<InstrDesc> curInstr;
        std::vector<std::uint64_t> curInstrIdx;
        Cache::Snapshot l1;
        TagArray::Snapshot victimTags;
        RingBuffer<LocalCompletion> localPending{1};
        Counter instrsRetired;
        Counter idleCycles;
        Counter memWaitCycles;
        Counter stallCycles;
        Counter lostLocality;

        std::size_t
        heapBytes() const
        {
            return warps.capacity() * sizeof(WarpState) +
                   schedulers.capacity() *
                       sizeof(WarpScheduler::Snapshot) +
                   curInstr.capacity() * sizeof(InstrDesc) +
                   curInstrIdx.capacity() * sizeof(std::uint64_t) +
                   l1.heapBytes() + victimTags.heapBytes() +
                   localPending.capacity() * sizeof(LocalCompletion);
        }
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &snap);

  private:
    /** What one issue attempt did. */
    enum class IssueResult : std::uint8_t
    {
        Issued, ///< An instruction (or one load transaction) issued.
        /** A load parked on an MSHR stall at the current L1
         *  generation: retries fail identically until it moves. */
        Parked,
        /** Fresh back-pressure (a full crossbar VOQ, which can drain
         *  without the core seeing it, or a new MSHR stall). */
        Blocked,
    };

    /** Try to issue one instruction from @p warp. */
    IssueResult issueFrom(WarpId warp, Cycle now, Crossbar &xbar);

    /**
     * Re-derive @p warp's cached decode, readiness and off-chip wait
     * after its state changed (issue, fill, reset) and push them to
     * its scheduler. The instruction is only re-decoded when
     * nextInstr actually moved.
     */
    void refreshWarp(WarpId warp);

    /** Any SWL-active warp blocked on an off-chip load? */
    bool anyActiveMemBlocked() const;

    /** curInstrIdx_ value marking a decode-cache entry as stale. */
    static constexpr std::uint64_t kStaleInstr = ~std::uint64_t{0};

    const GpuConfig &cfg_;
    const AddressMap &amap_;
    CoreId id_;
    AppId app_;
    const TraceGen *tracer_;
    bool bypassL1_ = false;
    bool bypassL2_ = false;

    std::vector<WarpState> warps_;
    std::vector<WarpScheduler> schedulers_;
    /** Decoded instruction at each warp's nextInstr (decode cache). */
    std::vector<InstrDesc> curInstr_;
    /** nextInstr value curInstr_ was decoded at (kStaleInstr = stale). */
    std::vector<std::uint64_t> curInstrIdx_;
    Cache l1_;
    /**
     * Victim tags of recently evicted L1 lines. An L1 miss that hits
     * here is *lost locality*: the line would have hit had fewer
     * warps shared the cache — the CCWS-style throttle signal.
     */
    TagArray victimTags_;
    /**
     * L1-hit responses waiting out the hit latency. Every push is due
     * at now + l1HitLatency, so due times never decrease and the
     * front is the earliest; tickResponses pops every due entry at
     * once, so their order among equal due times is unobservable.
     */
    RingBuffer<LocalCompletion> localPending_;
    /** Reused fill scratch: zero steady-state allocation per fill. */
    Cache::FillResult fillScratch_;

    Counter instrsRetired_;
    Counter idleCycles_;
    Counter memWaitCycles_;
    Counter stallCycles_;
    Counter lostLocality_;

    /** What the last parked cycle added (see addParkedCycles). Not
     *  part of Snapshot: a restored core is awake until it parks. */
    bool parkedStall_ = false;
    bool parkedMemWait_ = false;
};

} // namespace ebm
