#include "sim/gpu.hpp"

#include <algorithm>
#include <bit>
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

    // validate() capped numCores at 64, one bit per core.
    allCores_ = cfg_.numCores == 64 ? ~std::uint64_t{0}
                                    : coreBit(cfg_.numCores) - 1;
    awake_ = allCores_;
    parkedAt_.assign(cfg_.numCores, 0);
    wheel_.assign(std::bit_ceil(std::max(cfg_.l1HitLatency,
                                         cfg_.icntResponseLatency) +
                                std::uint64_t{1}),
                  0);
    wheelMask_ = wheel_.size() - 1;
}

void
Gpu::tick()
{
    step();
    settleParked();
}

void
Gpu::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    while (now_ < end)
        step();
    settleParked();
}

void
Gpu::step()
{
    ++now_;

    // Awake cores issue into the crossbar. A core whose issue cycle
    // provably repeats parks until something wakes it.
    for (std::uint64_t m = awake_; m != 0; m &= m - 1) {
        const auto id = static_cast<CoreId>(std::countr_zero(m));
        const SimtCore::IssueCycle cycle =
            cores_[id]->tickIssue(now_, xbar_);
        if (cycle.hitQueued)
            markDue(id, now_ + cfg_.l1HitLatency);
        if (cycle.parked) {
            awake_ &= ~coreBit(id);
            parkedAt_[id] = now_;
        }
    }

    // Crossbar moves flits; each granted response is due at its core
    // one fixed latency later.
    std::uint64_t &arrivals =
        wheel_[(now_ + cfg_.icntResponseLatency) & wheelMask_];
    xbar_.tick(now_, [&arrivals](std::uint32_t core) {
        arrivals |= coreBit(core);
    });

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

    // Cores with a response or local completion due absorb it; one
    // that was parked wakes for the next cycle's issue stage.
    std::uint64_t &slot = wheel_[now_ & wheelMask_];
    std::uint64_t due = slot;
    slot = 0;
    for (; due != 0; due &= due - 1) {
        const auto id = static_cast<CoreId>(std::countr_zero(due));
        if (cores_[id]->tickResponses(now_, xbar_))
            wake(id);
        markNextDue(id);
    }
}

void
Gpu::settleParked()
{
    for (std::uint64_t m = allCores_ & ~awake_; m != 0; m &= m - 1) {
        const auto id = static_cast<CoreId>(std::countr_zero(m));
        cores_[id]->addParkedCycles(now_ - parkedAt_[id]);
        parkedAt_[id] = now_;
    }
}

void
Gpu::wake(CoreId id)
{
    if ((awake_ & coreBit(id)) != 0)
        return;
    cores_[id]->addParkedCycles(now_ - parkedAt_[id]);
    awake_ |= coreBit(id);
}

void
Gpu::markNextDue(CoreId id)
{
    const Cycle next =
        std::min(cores_[id]->nextCompletionAt(),
                 xbar_.responseNet().nextArrival(id));
    if (next != kNeverCycle)
        markDue(id, std::max(next, now_ + 1));
}

void
Gpu::setAppTlp(AppId app, std::uint32_t warps_per_scheduler)
{
    for (CoreId id : appCores_[app]) {
        cores_[id]->setTlpLimit(warps_per_scheduler);
        wake(id);
    }
}

std::uint32_t
Gpu::appTlp(AppId app) const
{
    return cores_[appCores_[app].front()]->tlpLimit();
}

void
Gpu::setAppL1Bypass(AppId app, bool bypass)
{
    for (CoreId id : appCores_[app]) {
        cores_[id]->setL1Bypass(bypass);
        wake(id);
    }
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
    for (std::size_t i = 0; i < cores_.size(); ++i)
        cores_[i]->restore(snap.cores[i]);
    xbar_.restore(snap.xbar);
    for (std::size_t i = 0; i < partitions_.size(); ++i)
        partitions_[i]->restore(snap.partitions[i]);
    holdover_ = snap.holdover;
    // Scratch vectors are cleared before every use; leave them alone.
    // Park and wheel state is derived: every core wakes, and the
    // wheel marks each core's earliest pending response.
    awake_ = allCores_;
    std::fill(wheel_.begin(), wheel_.end(), 0);
    for (CoreId id = 0; id < cores_.size(); ++id)
        markNextDue(id);
}

void
Gpu::reset(bool flush_caches)
{
    now_ = 0;
    for (auto &core : cores_)
        core->reset(flush_caches);
    xbar_.clear();
    holdover_.clear();
    for (auto &part : partitions_)
        part->reset();
    // Nothing is in flight: every core wakes and the wheel is empty.
    awake_ = allCores_;
    std::fill(wheel_.begin(), wheel_.end(), 0);
}

} // namespace ebm
