#include "mem/dram.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace ebm {

DramChannel::DramChannel(const GpuConfig &cfg, std::uint32_t num_apps)
    : timing_(cfg.dram),
      capCycles_(cfg.frfcfsCapCycles),
      banks_(cfg.banksPerChannel),
      groupOf_(cfg.banksPerChannel),
      lastColumnInGroup_(cfg.bankGroups, 0),
      slots_(cfg.frfcfsQueueDepth),
      bankQueues_(cfg.banksPerChannel),
      bankReadyAt_(cfg.banksPerChannel, 0),
      dataCycles_(num_apps)
{
    if (banks_.size() > 64)
        fatal("DramChannel: at most 64 banks per channel "
              "(bank mask width)");
    const std::uint32_t banks_per_group =
        cfg.banksPerChannel / cfg.bankGroups;
    for (std::uint32_t b = 0; b < groupOf_.size(); ++b)
        groupOf_[b] = b / banks_per_group;
    clearQueue();
}

void
DramChannel::bankChanged(std::uint32_t b)
{
    const DramBank &bank = banks_[b];
    const std::uint64_t bit = 1ull << b;
    openMask_ = bank.rowOpen ? openMask_ | bit : openMask_ & ~bit;
    // A closed bank's next ACT waits out tRP; an open bank's next PRE
    // also waits out tRAS.
    bankReadyAt_[b] = std::max(bank.readyForActivate,
                               bank.rowOpen ? bank.rowOpenedAt + timing_.tRAS
                                            : Cycle{0});
}

std::uint32_t
DramChannel::oldestNonHit(std::uint64_t banks) const
{
    std::uint32_t oldest = kNil;
    std::uint64_t oldest_seq = kNoSeq;
    for (; banks != 0; banks &= banks - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(banks));
        const BankQueue &q = bankQueues_[b];
        if (q.nonHitSeq < oldest_seq) {
            oldest = q.firstNonHit;
            oldest_seq = q.nonHitSeq;
        }
    }
    return oldest;
}

void
DramChannel::reindexBank(std::uint32_t b)
{
    BankQueue &q = bankQueues_[b];
    const DramBank &bank = banks_[b];
    q.firstHit = kNil;
    q.firstNonHit = kNil;
    q.hitSeq = kNoSeq;
    q.nonHitSeq = kNoSeq;
    for (std::uint32_t i = q.head; i != kNil; i = slots_[i].bankNext) {
        const DramCommand &cmd = slots_[i].cmd;
        const bool hit = bank.rowOpen && bank.openRow == cmd.coord.row;
        if (hit && q.firstHit == kNil) {
            q.firstHit = i;
            q.hitSeq = cmd.seq;
        } else if (!hit && q.firstNonHit == kNil) {
            q.firstNonHit = i;
            q.nonHitSeq = cmd.seq;
        }
    }
    const std::uint64_t bit = 1ull << b;
    hitMask_ = q.firstHit != kNil ? hitMask_ | bit : hitMask_ & ~bit;
    nonHitMask_ =
        q.firstNonHit != kNil ? nonHitMask_ | bit : nonHitMask_ & ~bit;
}

void
DramChannel::place(const DramCommand &cmd)
{
    const std::uint32_t s = freeSlot_;
    Slot &slot = slots_[s];
    freeSlot_ = slot.bankNext;
    slot.cmd = cmd;
    slot.bankNext = kNil;
    slot.ageNext = kNil;
    slot.agePrev = ageTail_;
    (ageTail_ == kNil ? ageHead_ : slots_[ageTail_].ageNext) = s;
    ageTail_ = s;
    ++count_;

    const std::uint32_t b = cmd.coord.bank;
    BankQueue &q = bankQueues_[b];
    (q.tail == kNil ? q.head : slots_[q.tail].bankNext) = s;
    q.tail = s;
    // The newest command only becomes a candidate if its bank has none
    // of its kind yet: every queued one is older.
    const DramBank &bank = banks_[b];
    const std::uint64_t bit = 1ull << b;
    if (bank.rowOpen && bank.openRow == cmd.coord.row) {
        if (q.firstHit == kNil) {
            q.firstHit = s;
            q.hitSeq = cmd.seq;
            hitMask_ |= bit;
        }
    } else if (q.firstNonHit == kNil) {
        q.firstNonHit = s;
        q.nonHitSeq = cmd.seq;
        nonHitMask_ |= bit;
    }
}

void
DramChannel::removeColumn(std::uint32_t b)
{
    BankQueue &q = bankQueues_[b];
    const std::uint32_t s = q.firstHit;
    Slot &slot = slots_[s];

    (slot.agePrev == kNil ? ageHead_ : slots_[slot.agePrev].ageNext) =
        slot.ageNext;
    (slot.ageNext == kNil ? ageTail_ : slots_[slot.ageNext].agePrev) =
        slot.agePrev;

    std::uint32_t prev = kNil;
    for (std::uint32_t i = q.head; i != s; i = slots_[i].bankNext)
        prev = i;
    const std::uint32_t next = slot.bankNext;
    (prev == kNil ? q.head : slots_[prev].bankNext) = next;
    if (q.tail == s)
        q.tail = prev;
    slot.bankNext = freeSlot_;
    freeSlot_ = s;
    --count_;

    // Every entry before the issued one was a non-hit (it was the
    // oldest hit), so the next hit, if any, follows it.
    for (std::uint32_t i = next; i != kNil; i = slots_[i].bankNext) {
        if (slots_[i].cmd.coord.row == banks_[b].openRow) {
            q.firstHit = i;
            q.hitSeq = slots_[i].cmd.seq;
            return;
        }
    }
    q.firstHit = kNil;
    q.hitSeq = kNoSeq;
    hitMask_ &= ~(1ull << b);
}

void
DramChannel::clearQueue()
{
    freeSlot_ = kNil;
    for (std::size_t i = slots_.size(); i-- > 0;) {
        slots_[i].bankNext = freeSlot_;
        freeSlot_ = static_cast<std::uint32_t>(i);
    }
    ageHead_ = kNil;
    ageTail_ = kNil;
    count_ = 0;
    for (auto &q : bankQueues_)
        q = BankQueue{};
    hitMask_ = 0;
    nonHitMask_ = 0;

    for (std::uint32_t b = 0; b < banks_.size(); ++b)
        bankChanged(b);
}

void
DramChannel::enqueue(const MemRequest &req, const DramCoord &coord)
{
    if (req.app >= dataCycles_.size())
        panic("DramChannel: request with out-of-range app id");
    if (coord.bank >= banks_.size())
        panic("DramChannel: request with out-of-range bank");
    if (queueFull())
        panic("DramChannel: enqueue into a full queue");
    DramCommand cmd;
    cmd.req = req;
    cmd.coord = coord;
    cmd.seq = nextSeq_++;
    cmd.enqueuedAt = now_;
    place(cmd);
    scanSkipUntil_ = 0; // New work invalidates the fruitless-scan skip.
}

bool
DramChannel::schedule(DramCompletion &out)
{
    // Scan-skipping (tick() tests it inline): a scan that issues
    // nothing mutates no state, so its outcome can only change once
    // now_ crosses one of the fixed timing thresholds that blocked it
    // (every condition below is a monotone `now_ >= threshold` test).
    // A fruitless scan records a conservative minimum over those
    // thresholds; until then — and as long as no enqueue changes the
    // queue — scans are skipped.
    //
    // FR-FCFS with a single command bus: each DRAM cycle issue the
    // highest-priority *serviceable* command — (1) the oldest
    // row-hitting column access, else (2) the oldest activate, else
    // (3) the oldest precharge. Requests whose bank is timing-blocked
    // never block younger requests to other banks.
    //
    // Every blocking condition is a per-bank (or bank-group, or
    // channel-wide) threshold, so all row hits on one bank are
    // serviceable together, as are all its other commands: only each
    // bank's oldest of either kind (its firstHit / firstNonHit) can
    // win. The scans visit just the banks in hitMask_ / nonHitMask_.
    //
    // Starvation cap: a request that has aged past capCycles_ gets
    // absolute priority — its bank may be precharged even under
    // younger row hits. Without this, one application's row-hit
    // stream can starve a co-runner's row misses indefinitely.
    // The age list's head is the oldest request: it is past the cap
    // iff any request is.
    const DramCommand &front = slots_[ageHead_].cmd;
    const bool aged = now_ - front.enqueuedAt > capCycles_;

    // Earliest cycle at which some currently blocked command could
    // become issuable, assuming no other state change (see above).
    Cycle wake = kNeverCycle;

    // Pass 1 — the oldest serviceable row-hit column access. The
    // data-bus condition is command-independent: hoisted
    // (busFreeAt_ <= now_ + tCL is now_ >= bus_ready). Both passes
    // are branch-free: which banks are ready is data, not control
    // flow.
    const Cycle bus_ready =
        busFreeAt_ > timing_.tCL ? busFreeAt_ - timing_.tCL : 0;
    std::uint64_t col_seq = kNoSeq;
    std::uint32_t col_bank = 0;
    for (std::uint64_t m = hitMask_; m != 0; m &= m - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(m));
        const Cycle ready = std::max(
            {banks_[b].readyForColumn, bus_ready,
             lastColumnInGroup_[groupOf_[b]] + timing_.tCCDl});
        const bool ok = now_ >= ready;
        const std::uint64_t seq = ok ? bankQueues_[b].hitSeq : kNoSeq;
        col_bank = seq < col_seq ? b : col_bank;
        col_seq = std::min(col_seq, seq);
        wake = std::min(wake, ok ? kNeverCycle : ready);
    }

    if (col_seq != kNoSeq) {
        scanSkipUntil_ = 0; // State changes; re-scan next cycle.
        const DramCommand &cmd = slots_[bankQueues_[col_bank].firstHit].cmd;
        const Cycle data_start =
            std::max(busFreeAt_, now_ + timing_.tCL);
        const Cycle data_end = data_start + timing_.burstCycles;
        busFreeAt_ = data_end;
        lastColumnInGroup_[groupOf_[col_bank]] = now_;

        if (!cmd.causedActivate)
            rowHits_.add();
        serviced_.add();
        dataCycles_[cmd.req.app].add(timing_.burstCycles);

        out.req = cmd.req;
        out.readyAt = data_end;
        removeColumn(col_bank);
        return true;
    }

    // Pass 2 — the oldest activate, then the oldest precharge. Banks
    // with a pending row hit are shielded: they must not be
    // precharged/re-activated out from under those hits, unless the
    // aged request's bank overrides. A bank's threshold is its
    // bankReadyAt_ (an activate also waits out tRRD).
    std::uint64_t shield = hitMask_;
    if (aged)
        shield &= ~(1ull << front.coord.bank);
    const Cycle rrd_ready = lastActivateAt_ + timing_.tRRD;
    std::uint64_t ready_banks = 0;
    for (std::uint64_t m = nonHitMask_ & ~shield; m != 0; m &= m - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(m));
        const bool open = ((openMask_ >> b) & 1) != 0;
        const Cycle ready =
            std::max(bankReadyAt_[b], open ? Cycle{0} : rrd_ready);
        const bool ok = now_ >= ready;
        ready_banks |= std::uint64_t{ok} << b;
        wake = std::min(wake, ok ? kNeverCycle : ready);
    }
    const std::uint64_t can_act = ready_banks & ~openMask_;
    const std::uint64_t can_pre = ready_banks & openMask_;

    const std::uint32_t act = oldestNonHit(can_act);
    if (act != kNil) {
        scanSkipUntil_ = 0;
        DramCommand &cmd = slots_[act].cmd;
        const std::uint32_t b = cmd.coord.bank;
        DramBank &bank = banks_[b];
        bank.rowOpen = true;
        bank.openRow = cmd.coord.row;
        bank.rowOpenedAt = now_;
        bank.readyForColumn = now_ + timing_.tRCD;
        lastActivateAt_ = now_;
        cmd.causedActivate = true;
        rowMisses_.add();
        bankChanged(b);
        reindexBank(b);
        return false;
    }

    const std::uint32_t pre = oldestNonHit(can_pre);
    if (pre != kNil) {
        scanSkipUntil_ = 0;
        const std::uint32_t b = slots_[pre].cmd.coord.bank;
        DramBank &bank = banks_[b];
        bank.rowOpen = false;
        bank.readyForActivate = now_ + timing_.tRP;
        bankChanged(b);
        reindexBank(b);
        return false;
    }

    // Fruitless scan. Beyond the per-command timing thresholds, the
    // only other time-driven flip is the front request ageing past
    // the starvation cap (which lifts the row-hit shield on its
    // bank); include it conservatively. An early wake is harmless —
    // the scan just runs and recomputes.
    if (!aged)
        wake = std::min(wake, front.enqueuedAt + capCycles_ + 1);
    scanSkipUntil_ = std::max(wake, now_ + 1);
    return false;
}

void
DramChannel::checkpoint()
{
    for (auto &c : dataCycles_)
        c.checkpoint();
    rowHits_.checkpoint();
    rowMisses_.checkpoint();
    serviced_.checkpoint();
}

void
DramChannel::reset()
{
    now_ = 0;
    busFreeAt_ = 0;
    lastActivateAt_ = 0;
    for (auto &bank : banks_)
        bank = DramBank{};
    std::fill(lastColumnInGroup_.begin(), lastColumnInGroup_.end(),
              Cycle{0});
    nextSeq_ = 0;
    clearQueue();
    scanSkipUntil_ = 0;
    for (auto &c : dataCycles_)
        c.reset();
    rowHits_.reset();
    rowMisses_.reset();
    serviced_.reset();
}

DramChannel::Snapshot
DramChannel::snapshot() const
{
    Snapshot snap;
    snap.now = now_;
    snap.busFreeAt = busFreeAt_;
    snap.lastActivateAt = lastActivateAt_;
    snap.scanSkipUntil = scanSkipUntil_;
    snap.banks = banks_;
    snap.lastColumnInGroup = lastColumnInGroup_;
    snap.queue.reserve(count_);
    for (std::uint32_t i = ageHead_; i != kNil; i = slots_[i].ageNext)
        snap.queue.push_back(slots_[i].cmd);
    snap.dataCycles = dataCycles_;
    snap.rowHits = rowHits_;
    snap.rowMisses = rowMisses_;
    snap.serviced = serviced_;
    return snap;
}

void
DramChannel::restore(const Snapshot &snap)
{
    // The index below trusts every queued bank and app to be in range
    // and the queue to be age-ordered by strictly increasing seq.
    bool ok = snap.banks.size() == banks_.size() &&
              snap.lastColumnInGroup.size() == lastColumnInGroup_.size() &&
              snap.dataCycles.size() == dataCycles_.size() &&
              snap.queue.size() <= slots_.size();
    for (std::size_t i = 0; ok && i < snap.queue.size(); ++i) {
        const DramCommand &cmd = snap.queue[i];
        ok = cmd.coord.bank < banks_.size() &&
             cmd.req.app < dataCycles_.size() &&
             (i == 0 || snap.queue[i - 1].seq < cmd.seq);
    }
    if (!ok)
        fatal("DramChannel: snapshot shape mismatch");
    now_ = snap.now;
    busFreeAt_ = snap.busFreeAt;
    lastActivateAt_ = snap.lastActivateAt;
    scanSkipUntil_ = snap.scanSkipUntil;
    banks_ = snap.banks;
    lastColumnInGroup_ = snap.lastColumnInGroup;
    dataCycles_ = snap.dataCycles;
    rowHits_ = snap.rowHits;
    rowMisses_ = snap.rowMisses;
    serviced_ = snap.serviced;
    clearQueue();
    for (const DramCommand &cmd : snap.queue)
        place(cmd);
    nextSeq_ = snap.queue.empty() ? 0 : snap.queue.back().seq + 1;
}

} // namespace ebm
