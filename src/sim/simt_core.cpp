#include "sim/simt_core.hpp"

#include "common/log.hpp"

namespace ebm {

SimtCore::SimtCore(const GpuConfig &cfg, const AddressMap &amap,
                   CoreId id, AppId app, const TraceGen *tracer)
    : cfg_(cfg),
      amap_(amap),
      id_(id),
      app_(app),
      tracer_(tracer),
      warps_(cfg.maxWarpsPerCore),
      curInstr_(cfg.maxWarpsPerCore),
      curInstrIdx_(cfg.maxWarpsPerCore, kStaleInstr),
      l1_(cfg.l1, cfg.numApps),
      victimTags_([&cfg] {
          // Victim tags track twice the L1's line count at the same
          // set count so recently evicted lines linger long enough to
          // witness lost locality.
          CacheGeometry geom = cfg.l1;
          geom.sizeBytes = cfg.l1.sizeBytes * 2;
          geom.assoc = cfg.l1.assoc * 2;
          return geom;
      }()),
      localPending_(static_cast<std::size_t>(cfg.schedulersPerCore) *
                    cfg.maxIssuePerScheduler * (cfg.l1HitLatency + 1))
{
    if (tracer_ == nullptr)
        fatal("SimtCore: null trace generator");
    // Warp contexts are dealt round-robin to the schedulers, matching
    // the usual even/odd warp-id split; within a scheduler, lower
    // hardware id means older.
    const std::uint32_t per_sched =
        cfg.maxWarpsPerCore / cfg.schedulersPerCore;
    schedulers_.reserve(cfg.schedulersPerCore);
    for (std::uint32_t s = 0; s < cfg.schedulersPerCore; ++s) {
        std::vector<WarpId> ids;
        ids.reserve(per_sched);
        for (std::uint32_t i = 0; i < per_sched; ++i)
            ids.push_back(i * cfg.schedulersPerCore + s);
        schedulers_.emplace_back(std::move(ids), per_sched);
    }
    for (WarpId w = 0; w < warps_.size(); ++w)
        refreshWarp(w);
}

void
SimtCore::setTlpLimit(std::uint32_t warps_per_scheduler)
{
    for (WarpScheduler &sched : schedulers_)
        sched.setTlpLimit(warps_per_scheduler);
}

void
SimtCore::refreshWarp(WarpId warp)
{
    const WarpState &w = warps_[warp];
    if (curInstrIdx_[warp] != w.nextInstr) {
        curInstr_[warp] = tracer_->instrAt(w.nextInstr);
        curInstrIdx_[warp] = w.nextInstr;
    }
    const bool ready =
        !(curInstr_[warp].waitsForMem && w.outstanding > 0);
    WarpScheduler &sched = schedulers_[warp % cfg_.schedulersPerCore];
    const std::uint32_t pos = warp / cfg_.schedulersPerCore;
    sched.setReady(pos, ready);
    sched.setOffchip(pos, w.outstandingOffchip > 0);
}

SimtCore::IssueResult
SimtCore::issueFrom(WarpId warp, Cycle now, Crossbar &xbar)
{
    WarpState &w = warps_[warp];
    // The decode cache is kept in lockstep with nextInstr, so the
    // instruction the readiness mask was derived from is reused here
    // rather than decoded a second time.
    const InstrDesc instr = curInstr_[warp];

    if (!instr.isLoad && !instr.isStore) {
        // Compute instructions are fully pipelined at the issue stage.
        ++w.nextInstr;
        ++w.instrsRetired;
        instrsRetired_.add();
        refreshWarp(warp);
        return IssueResult::Issued;
    }

    // A load that stalled on an MSHR structural hazard stays stalled
    // until the next L1 fill (or reset / bypass-knob flip), all of
    // which bump the cache generation. The retry attempt is entirely
    // side-effect-free, so skipping it here fails exactly as the
    // replayed Stall would — without the per-cycle line-address hash
    // and double MSHR probe that dominate congested sweeps.
    if (instr.isLoad && w.stallGen == l1_.generation())
        return IssueResult::Parked;

    // Memory instructions issue one cache-line transaction per cycle
    // (an uncoalesced load therefore occupies the scheduler for
    // numLines cycles).
    const std::uint64_t gwarp =
        static_cast<std::uint64_t>(id_) * cfg_.maxWarpsPerCore + warp;
    const Addr line = tracer_->lineAddr(gwarp, w.nextInstr, w.microIdx,
                                        w.streamPos, instr);

    if (instr.isStore) {
        // Write-through, no-allocate, fire-and-forget: the store
        // consumes interconnect and DRAM bandwidth, but no warp state
        // waits on it and it does not touch the caches.
        const PartitionId store_part = amap_.partitionOf(line);
        if (!xbar.requestNet().canAccept(id_, store_part))
            return IssueResult::Blocked;
        MemRequest store;
        store.lineAddr = line;
        store.type = MemAccessType::Store;
        store.app = app_;
        store.core = id_;
        store.warp = warp;
        store.issuedAt = now;
        xbar.requestNet().inject(id_, store_part, store);
        ++w.nextInstr;
        ++w.instrsRetired;
        instrsRetired_.add();
        refreshWarp(warp);
        return IssueResult::Issued;
    }

    MemRequest req;
    req.lineAddr = line;
    req.type = MemAccessType::Load;
    req.app = app_;
    req.core = id_;
    req.warp = warp;
    req.issuedAt = now;
    req.bypassL1 = bypassL1_;
    req.bypassL2 = bypassL2_;

    // Check downstream capacity *before* touching the L1 so a stalled
    // transaction is not double-counted in the miss statistics.
    const PartitionId part = amap_.partitionOf(line);
    if (!xbar.requestNet().canAccept(id_, part))
        return IssueResult::Blocked;

    const CacheOutcome outcome = l1_.access(req, bypassL1_);
    switch (outcome) {
      case CacheOutcome::Hit:
        localPending_.pushGrow(
            LocalCompletion{now + cfg_.l1HitLatency, warp});
        break;
      case CacheOutcome::MissNew:
        xbar.requestNet().inject(id_, part, req);
        ++w.outstandingOffchip;
        if (victimTags_.invalidate(line))
            lostLocality_.add();
        break;
      case CacheOutcome::MissMerged:
        ++w.outstandingOffchip;
        break; // Will wake when the in-flight fill returns.
      case CacheOutcome::Stall:
        // MSHR structural hazard; the warp re-arms when the L1
        // generation moves (see the skip above).
        w.stallGen = l1_.generation();
        return IssueResult::Blocked;
    }

    ++w.outstanding;
    ++w.microIdx;
    if (w.microIdx >= instr.numLines) {
        w.microIdx = 0;
        if (instr.category == AccessCategory::Stream)
            ++w.streamPos;
        ++w.nextInstr;
        ++w.instrsRetired;
        instrsRetired_.add();
    }
    refreshWarp(warp);
    return IssueResult::Issued;
}

SimtCore::IssueCycle
SimtCore::tickIssue(Cycle now, Crossbar &xbar)
{
    const std::size_t pending = localPending_.size();
    bool any_issued = false;
    bool any_structural = false;
    bool any_blocked = false;
    for (WarpScheduler &sched : schedulers_) {
        for (std::uint32_t n = 0; n < cfg_.maxIssuePerScheduler; ++n) {
            const WarpId warp = sched.pickReady();
            if (warp == WarpScheduler::kNoWarp)
                break;
            const IssueResult result = issueFrom(warp, now, xbar);
            if (result != IssueResult::Issued) {
                // Structural stall: a ready warp was blocked by
                // downstream back-pressure.
                any_structural = true;
                any_blocked |= result == IssueResult::Blocked;
                break;
            }
            sched.issuedAt(warp / cfg_.schedulersPerCore);
            any_issued = true;
        }
    }
    if (any_structural)
        stallCycles_.add();

    bool mem_wait = false;
    if (!any_issued) {
        idleCycles_.add();
        // Attribute the idle cycle to memory if any SWL-active warp is
        // blocked on outstanding loads.
        // Only off-chip latency counts as "memory waiting": waiting
        // out an L1 hit is a parallelism shortfall, not contention
        // (this is the distinction DynCTA's c_mem signal relies on).
        mem_wait = anyActiveMemBlocked();
        if (mem_wait)
            memWaitCycles_.add();
    }

    // Nothing issued and every failed pick was parked: no state moved,
    // so each later cycle repeats this one until a warp is refreshed,
    // the SWL limit changes or the L1 generation moves. A Blocked pick
    // never qualifies: a full VOQ drains without the core seeing it.
    IssueCycle cycle;
    cycle.parked = !any_issued && !any_blocked;
    if (cycle.parked) {
        parkedStall_ = any_structural;
        parkedMemWait_ = mem_wait;
    }
    cycle.hitQueued = localPending_.size() != pending;
    return cycle;
}

bool
SimtCore::anyActiveMemBlocked() const
{
    for (const WarpScheduler &sched : schedulers_) {
        if (sched.anyActiveOffchip())
            return true;
    }
    return false;
}

bool
SimtCore::tickResponses(Cycle now, Crossbar &xbar)
{
    bool absorbed = false;
    // L1-hit latency expirations.
    while (!localPending_.empty() &&
           localPending_.front().readyAt <= now) {
        const WarpId warp = localPending_.front().warp;
        WarpState &w = warps_[warp];
        if (w.outstanding == 0)
            panic("SimtCore: completion for a warp with none pending");
        --w.outstanding;
        localPending_.pop();
        refreshWarp(warp);
        absorbed = true;
    }

    // Fills coming back over the crossbar.
    MemResponse resp;
    while (xbar.responseNet().tryEject(id_, now, resp)) {
        l1_.fill(resp.lineAddr, resp.app, resp.bypassL1, fillScratch_);
        if (fillScratch_.evictedValid)
            victimTags_.access(fillScratch_.evictedLine, app_, true);
        for (const MemRequest &req : fillScratch_.waiters) {
            WarpState &w = warps_[req.warp];
            if (w.outstanding == 0 || w.outstandingOffchip == 0)
                panic("SimtCore: fill for a warp with none pending");
            --w.outstanding;
            --w.outstandingOffchip;
            refreshWarp(req.warp);
        }
        absorbed = true;
    }
    return absorbed;
}

void
SimtCore::checkpoint()
{
    instrsRetired_.checkpoint();
    idleCycles_.checkpoint();
    memWaitCycles_.checkpoint();
    stallCycles_.checkpoint();
    lostLocality_.checkpoint();
    l1_.stats().checkpoint();
}

void
SimtCore::reset(bool flush_l1)
{
    for (WarpState &w : warps_)
        w.reset();
    for (WarpScheduler &sched : schedulers_)
        sched.resetGreedy();
    localPending_.clear();
    if (flush_l1)
        l1_.reset();
    instrsRetired_.reset();
    idleCycles_.reset();
    memWaitCycles_.reset();
    stallCycles_.reset();
    lostLocality_.reset();
    victimTags_.flush();
    // Warp cursors moved back to instruction 0: re-derive the decode
    // cache and the ready and off-chip masks (all warps become ready
    // again).
    std::fill(curInstrIdx_.begin(), curInstrIdx_.end(), kStaleInstr);
    for (WarpId w = 0; w < warps_.size(); ++w)
        refreshWarp(w);
}

SimtCore::Snapshot
SimtCore::snapshot() const
{
    Snapshot snap;
    snap.bypassL1 = bypassL1_;
    snap.bypassL2 = bypassL2_;
    snap.warps = warps_;
    snap.schedulers.reserve(schedulers_.size());
    for (const WarpScheduler &sched : schedulers_)
        snap.schedulers.push_back(sched.snapshot());
    snap.curInstr = curInstr_;
    snap.curInstrIdx = curInstrIdx_;
    snap.l1 = l1_.snapshot();
    snap.victimTags = victimTags_.snapshot();
    snap.localPending = localPending_;
    snap.instrsRetired = instrsRetired_;
    snap.idleCycles = idleCycles_;
    snap.memWaitCycles = memWaitCycles_;
    snap.stallCycles = stallCycles_;
    snap.lostLocality = lostLocality_;
    return snap;
}

void
SimtCore::restore(const Snapshot &snap)
{
    if (snap.warps.size() != warps_.size() ||
        snap.schedulers.size() != schedulers_.size() ||
        snap.curInstr.size() != curInstr_.size() ||
        snap.curInstrIdx.size() != curInstrIdx_.size())
        fatal("SimtCore: snapshot shape mismatch");
    bypassL1_ = snap.bypassL1;
    bypassL2_ = snap.bypassL2;
    warps_ = snap.warps;
    for (std::size_t s = 0; s < schedulers_.size(); ++s)
        schedulers_[s].restore(snap.schedulers[s]);
    // The decode cache and ready masks are copied, not re-derived:
    // they were consistent with the warp cursors when captured. The
    // off-chip masks are not captured, so they are re-derived here.
    curInstr_ = snap.curInstr;
    curInstrIdx_ = snap.curInstrIdx;
    for (WarpId w = 0; w < warps_.size(); ++w) {
        schedulers_[w % cfg_.schedulersPerCore].setOffchip(
            w / cfg_.schedulersPerCore, warps_[w].outstandingOffchip > 0);
    }
    l1_.restore(snap.l1);
    victimTags_.restore(snap.victimTags);
    localPending_ = snap.localPending;
    // Transient scratch: cleared before every use, never carried.
    fillScratch_.waiters.clear();
    instrsRetired_ = snap.instrsRetired;
    idleCycles_ = snap.idleCycles;
    memWaitCycles_ = snap.memWaitCycles;
    stallCycles_ = snap.stallCycles;
    lostLocality_ = snap.lostLocality;
}

} // namespace ebm
