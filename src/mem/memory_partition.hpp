/**
 * @file
 * One memory partition: an L2 cache slice fronting one DRAM channel
 * (the paper's Table I attaches one L2 slice to each memory
 * controller). Requests arrive from the crossbar; L2 hits return after
 * the L2 latency; misses go to the FR-FCFS DRAM channel. The partition
 * owns the per-application attained-bandwidth and L2 miss-rate counters
 * that the EB monitor samples.
 */
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/mem_request.hpp"

namespace ebm {

/** L2 slice + DRAM channel behind one crossbar output port. */
class MemoryPartition
{
  public:
    MemoryPartition(const GpuConfig &cfg, const AddressMap &amap,
                    std::uint32_t num_apps);

    /** Back-pressure check for the crossbar. */
    bool canAccept() const { return !inputQueue_.full(); }

    /** Deliver a request from the crossbar. */
    void deliver(const MemRequest &req);

    /**
     * Advance one core-clock cycle. The DRAM command clock runs at
     * cfg.dramClockRatio of the core clock via a phase accumulator.
     * Responses that completed this cycle are appended to @p out.
     */
    void tick(Cycle now, std::vector<MemResponse> &out);

    /** Per-app attained data-bus cycles (cumulative). */
    std::uint64_t dataCycles(AppId app) const { return dram_.dataCycles(app); }

    /** Per-app attained data-bus cycles in the sampling window. */
    std::uint64_t windowDataCycles(AppId app) const
    {
        return dram_.windowDataCycles(app);
    }

    const Cache &l2() const { return l2_; }
    Cache &l2() { return l2_; }
    const DramChannel &dram() const { return dram_; }

    /** DRAM cycles elapsed (for bandwidth normalization). */
    Cycle dramCyclesElapsed() const { return dram_.now(); }

    /** Start a new sampling window on all partition counters. */
    void checkpoint();

    void reset();

    /** A response scheduled for a future core cycle. */
    struct PendingResponse
    {
        Cycle readyAt;
        MemResponse resp;
        bool operator>(const PendingResponse &o) const
        {
            return readyAt > o.readyAt;
        }
    };

    /**
     * L2 slice, DRAM controller, the crossbar-facing input queue, the
     * scheduled-response heap, and the fractional DRAM-clock phase —
     * the phase is observable (it decides which core cycles carry a
     * DRAM command cycle), so it restores bit-exactly. The fill
     * scratch is transient (cleared before every use) and is reset,
     * not copied.
     */
    struct Snapshot
    {
        Cache::Snapshot l2;
        DramChannel::Snapshot dram;
        BoundedQueue<MemRequest> inputQueue{1};
        double dramPhase = 0.0;
        std::priority_queue<PendingResponse,
                            std::vector<PendingResponse>,
                            std::greater<PendingResponse>> pending;

        std::size_t
        heapBytes() const
        {
            return l2.heapBytes() + dram.heapBytes() +
                   inputQueue.size() * sizeof(MemRequest) +
                   pending.size() * sizeof(PendingResponse);
        }
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &snap);

  private:

    void scheduleResponse(const MemRequest &req, Cycle ready_at);

    const GpuConfig &cfg_;
    const AddressMap &amap_;
    Cache l2_;
    DramChannel dram_;
    BoundedQueue<MemRequest> inputQueue_;
    double dramPhase_ = 0.0;
    /** Reused fill scratch: zero steady-state allocation per fill. */
    Cache::FillResult fillScratch_;
    std::priority_queue<PendingResponse, std::vector<PendingResponse>,
                        std::greater<PendingResponse>> pending_;
};

} // namespace ebm
