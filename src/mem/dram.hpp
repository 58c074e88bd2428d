/**
 * @file
 * A GDDR5-like DRAM channel with banked timing and an FR-FCFS
 * (first-ready, first-come-first-served) memory controller.
 *
 * Each DRAM command cycle the controller prioritizes (1) column
 * accesses to already-open rows (row hits), then (2) the oldest
 * request. Queued commands live in fixed entry slots threaded by an
 * age list and by per-bank lists, so each scheduling decision costs
 * O(banks with work), not O(queue), and issuing from mid-queue moves
 * no data. Bank state machines enforce
 * tRCD/tRP/tRAS/tCCD/tRRD constraints; the shared data bus serializes
 * bursts. Per-application useful-data-cycle counters provide the
 * attained-bandwidth half of the paper's EB metric.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "mem/mem_request.hpp"

namespace ebm {

/** A request waiting inside the memory controller. */
struct DramCommand
{
    MemRequest req;
    DramCoord coord;
    std::uint64_t seq = 0;      ///< Arrival number: the FCFS age key.
    Cycle enqueuedAt = 0;       ///< DRAM cycle of arrival (starvation cap).
    bool causedActivate = false; ///< This request opened its row itself.
};

/** A serviced request leaving the channel. */
struct DramCompletion
{
    MemRequest req;
    Cycle readyAt = 0; ///< DRAM cycle at which data is fully returned.
};

/** Timing state machine of one DRAM bank. */
struct DramBank
{
    bool rowOpen = false;
    std::uint64_t openRow = 0;
    Cycle readyForActivate = 0; ///< Earliest next ACT (tRP honoured).
    Cycle readyForColumn = 0;   ///< Earliest next RD/WR (tRCD honoured).
    Cycle rowOpenedAt = 0;      ///< For the tRAS constraint.
};

/** One DRAM channel + its FR-FCFS controller. */
class DramChannel
{
  public:
    DramChannel(const GpuConfig &cfg, std::uint32_t num_apps);

    /** Can another request be accepted this cycle? */
    bool queueFull() const { return count_ >= slots_.size(); }

    /** Enqueue a request (caller must check queueFull()). */
    void enqueue(const MemRequest &req, const DramCoord &coord);

    /**
     * Advance one DRAM command cycle; may issue one column access, or
     * one activate, or one precharge. At most one request completes
     * per cycle (the single data bus): if one did, it is written to
     * @p out and the call returns true.
     */
    bool
    tick(DramCompletion &out)
    {
        ++now_;
        // Nothing queued, or every queued command still sits out a
        // fixed timing constraint (see scanSkipUntil_).
        if (count_ == 0 || now_ < scanSkipUntil_)
            return false;
        return schedule(out);
    }

    /** Current DRAM cycle count. */
    Cycle now() const { return now_; }

    /** Requests currently queued (for utilization heuristics). */
    std::size_t queueDepth() const { return count_; }

    // --- Statistics --------------------------------------------------

    /** Data-bus cycles carrying useful data for @p app (cumulative). */
    std::uint64_t dataCycles(AppId app) const
    {
        return dataCycles_[app].total();
    }

    /** Data-bus cycles for @p app in the current sampling window. */
    std::uint64_t windowDataCycles(AppId app) const
    {
        return dataCycles_[app].sinceCheckpoint();
    }

    std::uint64_t rowHits() const { return rowHits_.total(); }
    std::uint64_t rowMisses() const { return rowMisses_.total(); }
    std::uint64_t requestsServiced() const { return serviced_.total(); }

    /** Start a new sampling window. */
    void checkpoint();

    void reset();

    /**
     * Full controller state: the clock, bus/bank timing machines, the
     * FR-FCFS queue in age order, the fruitless-scan skip mark, and
     * all counters (totals + window checkpoints). Timing parameters
     * and capacities are immutable per instance.
     */
    struct Snapshot
    {
        Cycle now = 0;
        Cycle busFreeAt = 0;
        Cycle lastActivateAt = 0;
        Cycle scanSkipUntil = 0;
        std::vector<DramBank> banks;
        std::vector<Cycle> lastColumnInGroup;
        std::vector<DramCommand> queue;
        std::vector<Counter> dataCycles;
        Counter rowHits;
        Counter rowMisses;
        Counter serviced;

        std::size_t
        heapBytes() const
        {
            return banks.capacity() * sizeof(DramBank) +
                   lastColumnInGroup.capacity() * sizeof(Cycle) +
                   queue.capacity() * sizeof(DramCommand) +
                   dataCycles.capacity() * sizeof(Counter);
        }
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &snap);

  private:
    /** One FR-FCFS command cycle past the inline checks in tick(). */
    bool schedule(DramCompletion &out);

    const DramTiming timing_;
    const std::uint32_t capCycles_; ///< FR-FCFS starvation cap.
    Cycle now_ = 0;
    Cycle busFreeAt_ = 0;       ///< Data bus occupied until this cycle.
    Cycle lastActivateAt_ = 0;  ///< For the tRRD constraint.
    std::vector<DramBank> banks_;
    /** Bank group of each bank (a table: no division per scan). */
    std::vector<std::uint32_t> groupOf_;
    /** Last column access per bank group, for tCCDl vs tCCDs. */
    std::vector<Cycle> lastColumnInGroup_;
    std::uint64_t nextSeq_ = 0; ///< seq of the next enqueued command.
    /**
     * No command can become issuable before this cycle (set by a scan
     * that found nothing; cleared on enqueue and on every issue).
     * Lets the controller skip the priority scans while all commands
     * sit out fixed timing constraints.
     */
    Cycle scanSkipUntil_ = 0;

    // --- The queue: entry slots and the lists through them ---------

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    /** One queued command, linked into the age list and its bank's. */
    struct Slot
    {
        DramCommand cmd;
        std::uint32_t bankNext = kNil; ///< Younger of the bank (or free).
        std::uint32_t agePrev = kNil;  ///< Next older command.
        std::uint32_t ageNext = kNil;  ///< Next younger command.
    };

    /**
     * A bank's queued commands and its two scheduling candidates: each
     * candidate's slot and its seq, so the scans compare ages without
     * touching the slots.
     */
    struct BankQueue
    {
        std::uint32_t head = kNil;        ///< Oldest entry.
        std::uint32_t tail = kNil;        ///< Youngest entry.
        std::uint32_t firstHit = kNil;    ///< Slot of oldest open-row hit.
        std::uint32_t firstNonHit = kNil; ///< Slot of oldest other command.
        std::uint64_t hitSeq = kNoSeq;    ///< seq of firstHit.
        std::uint64_t nonHitSeq = kNoSeq; ///< seq of firstNonHit.
    };

    /**
     * The FR-FCFS queue: frfcfsQueueDepth slots, sized once at
     * construction. Queued commands form one age-ordered list (oldest
     * at ageHead_, strictly increasing seq) and, per bank, an
     * age-ordered list through `bankNext`; unused slots form a free
     * list from freeSlot_. The queue never allocates.
     */
    std::vector<Slot> slots_;
    std::uint32_t freeSlot_ = kNil;
    std::uint32_t ageHead_ = kNil;
    std::uint32_t ageTail_ = kNil;
    std::size_t count_ = 0;
    std::vector<BankQueue> bankQueues_;
    std::uint64_t hitMask_ = 0;    ///< Banks whose firstHit is set.
    std::uint64_t nonHitMask_ = 0; ///< Banks whose firstNonHit is set.

    // --- Pass-2 readiness (derived from banks_; moves on ACT/PRE) ---

    std::uint64_t openMask_ = 0; ///< Banks with an open row.
    /**
     * Per bank, the earliest cycle of its next ACT (closed bank; tRRD
     * aside) or PRE (open bank). Changes only on ACT and PRE.
     */
    std::vector<Cycle> bankReadyAt_;

    /** Re-derive bank @p b's open-mask bit and readiness cycle (after
     *  an ACT or PRE, and when the queue is cleared). */
    void bankChanged(std::uint32_t b);

    /** Oldest firstNonHit among @p banks, or kNil. */
    std::uint32_t oldestNonHit(std::uint64_t banks) const;

    /** Recompute bank @p b's candidates and mask bits from its list. */
    void reindexBank(std::uint32_t b);

    /** Put @p cmd in a free slot at the young end of both lists. */
    void place(const DramCommand &cmd);

    /** Remove bank @p b's firstHit command: its column was issued. */
    void removeColumn(std::uint32_t b);

    /**
     * Empty the queue and re-derive the bank readiness from banks_,
     * in place: reset() and restore() allocate nothing.
     */
    void clearQueue();

    std::vector<Counter> dataCycles_;
    Counter rowHits_;
    Counter rowMisses_;
    Counter serviced_;
};

} // namespace ebm
