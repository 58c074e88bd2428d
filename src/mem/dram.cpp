#include "mem/dram.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace ebm {

DramChannel::DramChannel(const GpuConfig &cfg, std::uint32_t num_apps)
    : timing_(cfg.dram),
      banksPerGroup_(cfg.banksPerChannel / cfg.bankGroups),
      capCycles_(cfg.frfcfsCapCycles),
      banks_(cfg.banksPerChannel),
      lastColumnInGroup_(cfg.bankGroups, 0),
      queueCap_(cfg.frfcfsQueueDepth),
      slots_(cfg.frfcfsQueueDepth),
      bankQueues_(cfg.banksPerChannel),
      dataCycles_(num_apps)
{
    if (banks_.size() > 64)
        fatal("DramChannel: at most 64 banks per channel "
              "(bank mask width)");
    queue_.reserve(queueCap_);
    rebuildIndex();
}

void
DramChannel::reindexBank(std::uint32_t b)
{
    BankQueue &q = bankQueues_[b];
    const DramBank &bank = banks_[b];
    q.firstHit = kNoSeq;
    q.firstNonHit = kNoSeq;
    for (std::uint32_t i = q.head; i != kNil; i = slots_[i].next) {
        const BankEntry &e = slots_[i];
        const bool hit = bank.rowOpen && bank.openRow == e.row;
        std::uint64_t &first = hit ? q.firstHit : q.firstNonHit;
        if (first == kNoSeq)
            first = e.seq;
    }
    const std::uint64_t bit = 1ull << b;
    hitMask_ = q.firstHit != kNoSeq ? hitMask_ | bit : hitMask_ & ~bit;
    nonHitMask_ =
        q.firstNonHit != kNoSeq ? nonHitMask_ | bit : nonHitMask_ & ~bit;
}

void
DramChannel::indexCommand(const DramCommand &cmd)
{
    const std::uint32_t b = cmd.coord.bank;
    BankQueue &q = bankQueues_[b];
    const std::uint32_t s = freeSlot_;
    freeSlot_ = slots_[s].next;
    slots_[s] = {cmd.seq, cmd.coord.row, kNil};
    if (q.tail == kNil)
        q.head = s;
    else
        slots_[q.tail].next = s;
    q.tail = s;
    // The newest command only becomes a candidate if its bank has none
    // of its kind yet: every queued one is older.
    const DramBank &bank = banks_[b];
    const std::uint64_t bit = 1ull << b;
    if (bank.rowOpen && bank.openRow == cmd.coord.row) {
        if (q.firstHit == kNoSeq) {
            q.firstHit = cmd.seq;
            hitMask_ |= bit;
        }
    } else if (q.firstNonHit == kNoSeq) {
        q.firstNonHit = cmd.seq;
        nonHitMask_ |= bit;
    }
}

void
DramChannel::unindexColumn(std::uint32_t b)
{
    BankQueue &q = bankQueues_[b];
    std::uint32_t prev = kNil;
    std::uint32_t s = q.head;
    while (slots_[s].seq != q.firstHit) {
        prev = s;
        s = slots_[s].next;
    }
    const std::uint32_t next = slots_[s].next;
    (prev == kNil ? q.head : slots_[prev].next) = next;
    if (q.tail == s)
        q.tail = prev;
    slots_[s].next = freeSlot_;
    freeSlot_ = s;

    // Every entry before the issued one was a non-hit (it was the
    // oldest hit), so the next hit, if any, follows it.
    q.firstHit = kNoSeq;
    for (std::uint32_t i = next; i != kNil; i = slots_[i].next) {
        if (slots_[i].row == banks_[b].openRow) {
            q.firstHit = slots_[i].seq;
            return;
        }
    }
    hitMask_ &= ~(1ull << b);
}

void
DramChannel::rebuildIndex()
{
    nextSeq_ = queue_.empty() ? 0 : queue_.back().seq + 1;
    freeSlot_ = kNil;
    for (std::size_t i = slots_.size(); i-- > 0;) {
        slots_[i].next = freeSlot_;
        freeSlot_ = static_cast<std::uint32_t>(i);
    }
    for (auto &q : bankQueues_)
        q = BankQueue{};
    hitMask_ = 0;
    nonHitMask_ = 0;
    for (const DramCommand &cmd : queue_)
        indexCommand(cmd);
}

std::vector<DramCommand>::iterator
DramChannel::findQueued(std::uint64_t seq)
{
    return std::lower_bound(
        queue_.begin(), queue_.end(), seq,
        [](const DramCommand &c, std::uint64_t s) { return c.seq < s; });
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
    queue_.push_back(cmd);
    indexCommand(cmd);
    scanSkipUntil_ = 0; // New work invalidates the fruitless-scan skip.
}

bool
DramChannel::tick(DramCompletion &out)
{
    ++now_;
    if (queue_.empty())
        return false;

    // Scan-skipping: a scan that issues nothing mutates no state, so
    // its outcome can only change once now_ crosses one of the fixed
    // timing thresholds that blocked it (every condition below is a
    // monotone `now_ >= threshold` test). A fruitless scan records a
    // conservative minimum over those thresholds; until then — and as
    // long as no enqueue changes the queue — scans are skipped.
    if (now_ < scanSkipUntil_)
        return false;

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
    // The queue is age-ordered, so the front is the oldest request:
    // it is past the cap iff any request is.
    const DramCommand &front = queue_.front();
    const bool aged = now_ - front.enqueuedAt > capCycles_;

    // Earliest cycle at which some currently blocked command could
    // become issuable, assuming no other state change (see above).
    Cycle wake = kNeverCycle;

    // Pass 1 — the oldest serviceable row-hit column access. The
    // data-bus condition is command-independent: hoisted.
    const bool bus_ok = busFreeAt_ <= now_ + timing_.tCL;
    const Cycle bus_wake =
        busFreeAt_ > timing_.tCL ? busFreeAt_ - timing_.tCL : 0;
    std::uint64_t col_seq = kNoSeq;
    std::uint32_t col_bank = 0;
    for (std::uint64_t m = hitMask_; m != 0; m &= m - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(m));
        const DramBank &bank = banks_[b];
        const Cycle group_ready =
            lastColumnInGroup_[b / banksPerGroup_] + timing_.tCCDl;
        if (bus_ok && now_ >= bank.readyForColumn &&
            now_ >= group_ready) {
            if (bankQueues_[b].firstHit < col_seq) {
                col_seq = bankQueues_[b].firstHit;
                col_bank = b;
            }
            continue;
        }
        wake = std::min(
            wake, std::max({bank.readyForColumn, bus_wake, group_ready}));
    }

    if (col_seq != kNoSeq) {
        scanSkipUntil_ = 0; // State changes; re-scan next cycle.
        const auto it = findQueued(col_seq);
        const Cycle data_start =
            std::max(busFreeAt_, now_ + timing_.tCL);
        const Cycle data_end = data_start + timing_.burstCycles;
        busFreeAt_ = data_end;
        lastColumnInGroup_[col_bank / banksPerGroup_] = now_;

        if (!it->causedActivate)
            rowHits_.add();
        serviced_.add();
        dataCycles_[it->req.app].add(timing_.burstCycles);

        out.req = it->req;
        out.readyAt = data_end;
        queue_.erase(it);
        unindexColumn(col_bank);
        return true;
    }

    // Pass 2 — the oldest activate, then the oldest precharge. Banks
    // with a pending row hit are shielded: they must not be
    // precharged/re-activated out from under those hits, unless the
    // aged request's bank overrides.
    std::uint64_t shield = hitMask_;
    if (aged)
        shield &= ~(1ull << front.coord.bank);
    const Cycle rrd_ready = lastActivateAt_ + timing_.tRRD;
    std::uint64_t act_seq = kNoSeq;
    std::uint64_t pre_seq = kNoSeq;
    std::uint32_t act_bank = 0;
    std::uint32_t pre_bank = 0;
    for (std::uint64_t m = nonHitMask_ & ~shield; m != 0; m &= m - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(m));
        const DramBank &bank = banks_[b];
        const std::uint64_t seq = bankQueues_[b].firstNonHit;
        if (!bank.rowOpen) {
            const Cycle ready = std::max(bank.readyForActivate, rrd_ready);
            if (now_ >= ready && seq < act_seq) {
                act_seq = seq;
                act_bank = b;
            }
            wake = std::min(wake, ready);
        } else {
            const Cycle ready = std::max(bank.rowOpenedAt + timing_.tRAS,
                                         bank.readyForActivate);
            if (now_ >= ready && seq < pre_seq) {
                pre_seq = seq;
                pre_bank = b;
            }
            wake = std::min(wake, ready);
        }
    }

    if (act_seq != kNoSeq) {
        scanSkipUntil_ = 0;
        DramCommand &cmd = *findQueued(act_seq);
        DramBank &bank = banks_[act_bank];
        bank.rowOpen = true;
        bank.openRow = cmd.coord.row;
        bank.rowOpenedAt = now_;
        bank.readyForColumn = now_ + timing_.tRCD;
        lastActivateAt_ = now_;
        cmd.causedActivate = true;
        rowMisses_.add();
        reindexBank(act_bank);
        return false;
    }

    if (pre_seq != kNoSeq) {
        scanSkipUntil_ = 0;
        DramBank &bank = banks_[pre_bank];
        bank.rowOpen = false;
        bank.readyForActivate = now_ + timing_.tRP;
        reindexBank(pre_bank);
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
DramChannel::advanceIdle(std::uint64_t cycles)
{
    if (!queue_.empty())
        panic("DramChannel: idle advance with queued requests");
    now_ += cycles;
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
    queue_.clear();
    rebuildIndex();
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
    snap.queue = queue_;
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
              snap.queue.size() <= queueCap_;
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
    queue_ = snap.queue;
    dataCycles_ = snap.dataCycles;
    rowHits_ = snap.rowHits;
    rowMisses_ = snap.rowMisses;
    serviced_ = snap.serviced;
    rebuildIndex();
}

} // namespace ebm
