#include "sim/gpu.hpp"

#include <numeric>
#include <string>

#include "common/log.hpp"

namespace ebm {

Gpu::Gpu(const GpuConfig &cfg, std::vector<AppProfile> apps,
         std::vector<std::uint32_t> core_share)
    : cfg_(cfg), apps_(std::move(apps)), amap_(cfg_), xbar_(cfg_)
{
    numApps_ = static_cast<std::uint32_t>(apps_.size());
    if (numApps_ == 0)
        fatal("Gpu: at least one application required");
    cfg_.numApps = numApps_;
    cfg_.validate();

    if (core_share.empty()) {
        core_share.assign(numApps_, cfg_.numCores / numApps_);
    }
    if (core_share.size() != numApps_)
        fatal("Gpu: core_share size mismatch");
    const std::uint32_t total = std::accumulate(
        core_share.begin(), core_share.end(), 0u);
    if (total != cfg_.numCores) {
        fatal("Gpu: core shares sum to " + std::to_string(total) +
              ", expected " + std::to_string(cfg_.numCores));
    }

    tracers_.reserve(numApps_);
    for (AppId app = 0; app < numApps_; ++app) {
        tracers_.push_back(std::make_unique<TraceGen>(
            apps_[app], cfg_.l1.lineBytes, appAddressBase(app)));
    }

    appCores_.resize(numApps_);
    cores_.reserve(cfg_.numCores);
    CoreId next_core = 0;
    for (AppId app = 0; app < numApps_; ++app) {
        for (std::uint32_t i = 0; i < core_share[app]; ++i) {
            cores_.push_back(std::make_unique<SimtCore>(
                cfg_, amap_, next_core, app, tracers_[app].get()));
            appCores_[app].push_back(next_core);
            ++next_core;
        }
    }

    partitions_.reserve(cfg_.numPartitions);
    for (PartitionId p = 0; p < cfg_.numPartitions; ++p) {
        partitions_.push_back(
            std::make_unique<MemoryPartition>(cfg_, amap_, numApps_));
    }

    // Scratch vectors are sized once here; the per-cycle loop only
    // clears and swaps them, never reallocates in steady state.
    respScratch_.reserve(cfg_.frfcfsQueueDepth);
    holdover_.reserve(cfg_.frfcfsQueueDepth);
    holdoverScratch_.reserve(cfg_.frfcfsQueueDepth);
}

void
Gpu::tick()
{
    ++now_;

    // Cores issue into the crossbar. A dormant core's issue cycle
    // provably repeats its last one, so only its counters move.
    for (auto &core : cores_) {
        if (core->dormant())
            core->dormantTick();
        else
            core->tickIssue(now_, xbar_);
    }

    // Crossbar moves flits.
    xbar_.tick(now_);

    // Partitions drain the request network, tick L2+DRAM, and push
    // responses into the response network.
    for (PartitionId p = 0; p < partitions_.size(); ++p) {
        MemRequest req;
        // Eject at most one request per partition per cycle (one L2
        // port), respecting partition input-queue back-pressure.
        if (partitions_[p]->canAccept()) {
            if (xbar_.requestNet().tryEject(p, now_, req))
                partitions_[p]->deliver(req);
        }

        respScratch_.clear();
        partitions_[p]->tick(now_, respScratch_);
        for (const MemResponse &resp : respScratch_) {
            // Response network back-pressure: if the output queue is
            // full the response is retried via a local holdover.
            if (xbar_.responseNet().canAccept(p, resp.core)) {
                xbar_.responseNet().inject(p, resp.core, resp);
            } else {
                holdover_.push_back({resp, p});
            }
        }
    }

    // Retry responses that found the network full last cycle. The
    // port was captured when the response was first held over — it is
    // a pure function of the line address, so recomputing it through
    // the address map every retry cycle bought nothing.
    if (!holdover_.empty()) {
        holdoverScratch_.clear();
        for (const HeldResponse &held : holdover_) {
            if (xbar_.responseNet().canAccept(held.port,
                                              held.resp.core)) {
                xbar_.responseNet().inject(held.port, held.resp.core,
                                           held.resp);
            } else {
                holdoverScratch_.push_back(held);
            }
        }
        holdover_.swap(holdoverScratch_);
    }

    // Cores absorb responses and local completions, if any are due.
    for (auto &core : cores_) {
        if (core->localCompletionDue(now_) ||
            xbar_.responseNet().hasArrival(core->id(), now_))
            core->tickResponses(now_, xbar_);
    }
}

Cycle
Gpu::nextEventCycle() const
{
    if (!holdover_.empty())
        return now_ + 1;
    Cycle next = kNeverCycle;
    // Cores first: a ready warp is the common case, and the reduction
    // can stop as soon as anything wants the very next cycle.
    for (const auto &core : cores_) {
        const Cycle c = core->nextEventCycle(now_);
        if (c < next)
            next = c;
        if (next <= now_ + 1)
            return now_ + 1;
    }
    const Cycle x = xbar_.nextEventCycle(now_);
    if (x < next)
        next = x;
    if (next <= now_ + 1)
        return now_ + 1;
    for (const auto &part : partitions_) {
        const Cycle p = part->nextEventCycle(now_);
        if (p < next)
            next = p;
        if (next <= now_ + 1)
            return now_ + 1;
    }
    return next;
}

void
Gpu::fastForwardTo(Cycle target)
{
    const Cycle n = target - now_;
    for (auto &core : cores_)
        core->fastForward(n);
    // The crossbar holds no per-cycle state while its VOQs are empty
    // (in-flight arrivals are timestamped), so only the cores' idle
    // accounting and the partitions' DRAM clock need to move.
    for (auto &part : partitions_)
        part->fastForward(n);
    now_ = target;
    fastForwardedCycles_ += n;
}

void
Gpu::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    if (!fastForward_) {
        while (now_ < end)
            tick();
        return;
    }
    while (now_ < end) {
        const Cycle next = nextEventCycle();
        // Every cycle strictly before `next` is provably a no-op
        // apart from idle accounting: skip to next-1, then simulate
        // the event cycle itself normally.
        Cycle target = next == kNeverCycle ? end : next - 1;
        if (target > end)
            target = end;
        if (target > now_)
            fastForwardTo(target);
        if (now_ < end)
            tick();
    }
}

void
Gpu::setAppTlp(AppId app, std::uint32_t warps_per_scheduler)
{
    for (CoreId id : appCores_[app])
        cores_[id]->setTlpLimit(warps_per_scheduler);
}

std::uint32_t
Gpu::appTlp(AppId app) const
{
    return cores_[appCores_[app].front()]->tlpLimit();
}

void
Gpu::setAppL1Bypass(AppId app, bool bypass)
{
    for (CoreId id : appCores_[app])
        cores_[id]->setL1Bypass(bypass);
}

void
Gpu::setAppL2Bypass(AppId app, bool bypass)
{
    for (CoreId id : appCores_[app])
        cores_[id]->setL2Bypass(bypass);
}

void
Gpu::setAppL2WayPartition(AppId app, std::uint32_t first,
                          std::uint32_t count)
{
    for (auto &part : partitions_)
        part->l2().tags().setWayPartition(app, first, count);
}

void
Gpu::restoreKnobDefaults()
{
    for (AppId app = 0; app < numApps_; ++app) {
        setAppTlp(app, cfg_.maxTlp());
        setAppL1Bypass(app, false);
        setAppL2Bypass(app, false);
        for (auto &part : partitions_)
            part->l2().tags().clearWayPartition(app);
    }
}

std::uint64_t
Gpu::appInstrs(AppId app) const
{
    std::uint64_t total = 0;
    for (CoreId id : appCores_[app])
        total += cores_[id]->instrsRetired();
    return total;
}

std::uint64_t
Gpu::appDataCycles(AppId app) const
{
    std::uint64_t total = 0;
    for (const auto &part : partitions_)
        total += part->dataCycles(app);
    return total;
}

double
Gpu::appL1MissRate(AppId app) const
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    for (CoreId id : appCores_[app]) {
        accesses += cores_[id]->l1().stats().accesses(app);
        misses += cores_[id]->l1().stats().misses(app);
    }
    if (accesses == 0)
        return 1.0;
    return static_cast<double>(misses) / static_cast<double>(accesses);
}

double
Gpu::appL2MissRate(AppId app) const
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    for (const auto &part : partitions_) {
        accesses += part->l2().stats().accesses(app);
        misses += part->l2().stats().misses(app);
    }
    if (accesses == 0)
        return 1.0;
    return static_cast<double>(misses) / static_cast<double>(accesses);
}

double
Gpu::appAttainedBw(AppId app) const
{
    if (now_ == 0)
        return 0.0;
    // Peak = every channel busy every DRAM cycle. Using DRAM cycles
    // elapsed on channel 0 as the common denominator (all channels
    // share one clock).
    const Cycle dram_cycles = partitions_.front()->dramCyclesElapsed();
    if (dram_cycles == 0)
        return 0.0;
    const double peak = static_cast<double>(dram_cycles) *
                        static_cast<double>(partitions_.size());
    return static_cast<double>(appDataCycles(app)) / peak;
}

double
Gpu::totalAttainedBw() const
{
    double total = 0.0;
    for (AppId app = 0; app < numApps_; ++app)
        total += appAttainedBw(app);
    return total;
}

double
Gpu::appIpc(AppId app) const
{
    if (now_ == 0)
        return 0.0;
    return static_cast<double>(appInstrs(app)) /
           static_cast<double>(now_);
}

void
Gpu::checkpoint()
{
    for (auto &core : cores_)
        core->checkpoint();
    for (auto &part : partitions_)
        part->checkpoint();
}

std::size_t
Gpu::Snapshot::heapBytes() const
{
    std::size_t n = cores.capacity() * sizeof(SimtCore::Snapshot) +
                    partitions.capacity() *
                        sizeof(MemoryPartition::Snapshot) +
                    holdover.capacity() * sizeof(HeldResponse) +
                    xbar.heapBytes();
    for (const SimtCore::Snapshot &c : cores)
        n += c.heapBytes();
    for (const MemoryPartition::Snapshot &p : partitions)
        n += p.heapBytes();
    return n;
}

Gpu::Snapshot
Gpu::snapshot() const
{
    Snapshot snap;
    snap.now = now_;
    snap.fastForward = fastForward_;
    snap.fastForwardedCycles = fastForwardedCycles_;
    snap.cores.reserve(cores_.size());
    for (const auto &core : cores_)
        snap.cores.push_back(core->snapshot());
    snap.xbar = xbar_.snapshot();
    snap.partitions.reserve(partitions_.size());
    for (const auto &part : partitions_)
        snap.partitions.push_back(part->snapshot());
    snap.holdover = holdover_;
    return snap;
}

void
Gpu::restore(const Snapshot &snap)
{
    if (snap.cores.size() != cores_.size() ||
        snap.partitions.size() != partitions_.size())
        fatal("Gpu: snapshot shape mismatch");
    now_ = snap.now;
    fastForward_ = snap.fastForward;
    fastForwardedCycles_ = snap.fastForwardedCycles;
    for (std::size_t i = 0; i < cores_.size(); ++i)
        cores_[i]->restore(snap.cores[i]);
    xbar_.restore(snap.xbar);
    for (std::size_t i = 0; i < partitions_.size(); ++i)
        partitions_[i]->restore(snap.partitions[i]);
    holdover_ = snap.holdover;
    // Scratch vectors are cleared before every use; leave them alone.
}

void
Gpu::reset(bool flush_caches)
{
    now_ = 0;
    fastForwardedCycles_ = 0;
    for (auto &core : cores_)
        core->reset(flush_caches);
    xbar_.clear();
    holdover_.clear();
    for (auto &part : partitions_)
        part->reset();
}

} // namespace ebm
