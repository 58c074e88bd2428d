/**
 * @file
 * A GDDR5-like DRAM channel with banked timing and an FR-FCFS
 * (first-ready, first-come-first-served) memory controller.
 *
 * Each DRAM command cycle the controller prioritizes (1) column
 * accesses to already-open rows (row hits), then (2) the oldest
 * request. A per-bank index of the queued commands makes each
 * scheduling decision cost O(banks with work), not O(queue). Bank
 * state machines enforce
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
    bool queueFull() const { return queue_.size() >= queueCap_; }

    /** Enqueue a request (caller must check queueFull()). */
    void enqueue(const MemRequest &req, const DramCoord &coord);

    /**
     * Advance one DRAM command cycle; may issue one column access, or
     * one activate, or one precharge. At most one request completes
     * per cycle (the single data bus): if one did, it is written to
     * @p out and the call returns true.
     */
    bool tick(DramCompletion &out);

    /** Current DRAM cycle count. */
    Cycle now() const { return now_; }

    /** Requests currently queued (for utilization heuristics). */
    std::size_t queueDepth() const { return queue_.size(); }

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
     * age-ordered FR-FCFS queue, the fruitless-scan skip mark, and
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
    const DramTiming timing_;
    const std::uint32_t banksPerGroup_;
    const std::uint32_t capCycles_; ///< FR-FCFS starvation cap.
    Cycle now_ = 0;
    Cycle busFreeAt_ = 0;       ///< Data bus occupied until this cycle.
    Cycle lastActivateAt_ = 0;  ///< For the tRRD constraint.
    std::vector<DramBank> banks_;
    /** Last column access per bank group, for tCCDl vs tCCDs. */
    std::vector<Cycle> lastColumnInGroup_;
    /**
     * The FR-FCFS request queue, age-ordered front to back (strictly
     * increasing seq). A flat vector, capacity reserved once and
     * bounded by queueCap_; mid-queue removal shifts, preserving age
     * order. Scans never walk it: they read the per-bank index below.
     */
    std::vector<DramCommand> queue_;
    std::size_t queueCap_;
    std::uint64_t nextSeq_ = 0; ///< seq of the next enqueued command.
    /**
     * No command can become issuable before this cycle (set by a scan
     * that found nothing; cleared on enqueue and on every issue).
     * Lets the controller skip the priority scans while all commands
     * sit out fixed timing constraints.
     */
    Cycle scanSkipUntil_ = 0;

    // --- Per-bank FR-FCFS index (derived from queue_ and banks_) ----

    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One queued command as its bank's list records it. */
    struct BankEntry
    {
        std::uint64_t seq = 0;
        std::uint64_t row = 0;
        std::uint32_t next = kNil; ///< Younger entry of the bank (or free).
    };

    /** A bank's queued commands and its two scheduling candidates. */
    struct BankQueue
    {
        std::uint32_t head = kNil;          ///< Oldest entry.
        std::uint32_t tail = kNil;          ///< Youngest entry.
        std::uint64_t firstHit = kNoSeq;    ///< Oldest open-row hit.
        std::uint64_t firstNonHit = kNoSeq; ///< Oldest other command.
    };

    /**
     * queueCap_ entry slots, sized once at construction: each bank's
     * commands form an age-ordered list through `next`, and unused
     * slots a free list from freeSlot_. The index never allocates.
     */
    std::vector<BankEntry> slots_;
    std::uint32_t freeSlot_ = kNil;
    std::vector<BankQueue> bankQueues_;
    std::uint64_t hitMask_ = 0;    ///< Banks whose firstHit is set.
    std::uint64_t nonHitMask_ = 0; ///< Banks whose firstNonHit is set.

    /** Recompute bank @p b's candidates and mask bits from its list. */
    void reindexBank(std::uint32_t b);

    /** Append @p cmd to its bank's list and update the candidates. */
    void indexCommand(const DramCommand &cmd);

    /** Remove bank @p b's firstHit entry: its column was issued. */
    void unindexColumn(std::uint32_t b);

    /**
     * Derive the index (and nextSeq_) from queue_ and banks_, in place:
     * reset() and restore() allocate nothing.
     */
    void rebuildIndex();

    /** The queued command with arrival number @p seq (must exist). */
    std::vector<DramCommand>::iterator findQueued(std::uint64_t seq);

    std::vector<Counter> dataCycles_;
    Counter rowHits_;
    Counter rowMisses_;
    Counter serviced_;
};

} // namespace ebm
