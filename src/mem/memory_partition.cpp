#include "mem/memory_partition.hpp"

namespace ebm {

MemoryPartition::MemoryPartition(const GpuConfig &cfg,
                                 const AddressMap &amap,
                                 std::uint32_t num_apps)
    : cfg_(cfg),
      amap_(amap),
      l2_(cfg.l2Slice, num_apps),
      dram_(cfg, num_apps),
      inputQueue_(cfg.frfcfsQueueDepth)
{
}

void
MemoryPartition::deliver(const MemRequest &req)
{
    inputQueue_.push(req);
}

void
MemoryPartition::scheduleResponse(const MemRequest &req, Cycle ready_at)
{
    MemResponse resp;
    resp.lineAddr = req.lineAddr;
    resp.app = req.app;
    resp.core = req.core;
    resp.warp = req.warp;
    resp.bypassL1 = req.bypassL1;
    pending_.push(PendingResponse{ready_at, resp});
}

void
MemoryPartition::tick(Cycle now, std::vector<MemResponse> &out)
{
    // 1. Present queued requests to the L2 slice (one per cycle;
    //    the slice is the bandwidth filter in front of DRAM).
    if (!inputQueue_.empty() && !dram_.queueFull()) {
        MemRequest req = inputQueue_.front();
        if (req.type == MemAccessType::Store) {
            // Write-through stores skip the L2 and go straight to
            // DRAM; nothing waits on their completion.
            inputQueue_.pop();
            dram_.enqueue(req, amap_.decode(req.lineAddr));
        } else {
            const CacheOutcome outcome = l2_.access(req, req.bypassL2);
            switch (outcome) {
              case CacheOutcome::Hit:
                inputQueue_.pop();
                scheduleResponse(req, now + cfg_.l2HitLatency);
                break;
              case CacheOutcome::MissNew:
                inputQueue_.pop();
                dram_.enqueue(req, amap_.decode(req.lineAddr));
                break;
              case CacheOutcome::MissMerged:
                inputQueue_.pop();
                break;
              case CacheOutcome::Stall:
                break; // Retry next cycle.
            }
        }
    }

    // 2. Advance the DRAM command clock at its ratio of the core clock.
    dramPhase_ += cfg_.dramClockRatio;
    while (dramPhase_ >= 1.0) {
        dramPhase_ -= 1.0;
        DramCompletion done;
        if (!dram_.tick(done))
            continue;
        // Completed stores need no response and no fill.
        if (done.req.type == MemAccessType::Store)
            continue;
        // Fill L2 (unless this app bypasses it) and wake every
        // merged requester.
        l2_.fill(done.req.lineAddr, done.req.app, done.req.bypassL2,
                 fillScratch_);
        for (const MemRequest &w : fillScratch_.waiters)
            scheduleResponse(w, now + cfg_.l2HitLatency);
    }

    // 3. Release responses whose latency has elapsed.
    while (!pending_.empty() && pending_.top().readyAt <= now) {
        out.push_back(pending_.top().resp);
        pending_.pop();
    }
}

void
MemoryPartition::checkpoint()
{
    l2_.stats().checkpoint();
    dram_.checkpoint();
}

void
MemoryPartition::reset()
{
    l2_.reset();
    dram_.reset();
    inputQueue_.clear();
    dramPhase_ = 0.0;
    while (!pending_.empty())
        pending_.pop();
}

MemoryPartition::Snapshot
MemoryPartition::snapshot() const
{
    Snapshot snap;
    snap.l2 = l2_.snapshot();
    snap.dram = dram_.snapshot();
    snap.inputQueue = inputQueue_;
    snap.dramPhase = dramPhase_;
    snap.pending = pending_;
    return snap;
}

void
MemoryPartition::restore(const Snapshot &snap)
{
    if (snap.inputQueue.capacity() != inputQueue_.capacity())
        fatal("MemoryPartition: snapshot shape mismatch");
    l2_.restore(snap.l2);
    dram_.restore(snap.dram);
    inputQueue_ = snap.inputQueue;
    dramPhase_ = snap.dramPhase;
    pending_ = snap.pending;
    // The fill scratch is cleared before every use; leave it empty so
    // a restored instance matches a cold one byte-for-byte in
    // behaviour without carrying transient capacity around.
    fillScratch_.waiters.clear();
}

} // namespace ebm
