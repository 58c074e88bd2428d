/**
 * @file
 * The whole simulated GPU: SIMT cores partitioned among applications,
 * the crossbar, and the memory partitions. This is the substrate every
 * TLP-management scheme runs on; schemes interact with it only through
 * setTlpLimit()/setL1Bypass() and the statistics accessors, mirroring
 * the narrow hardware interface of the paper's Figure 8.
 *
 * Every cycle is simulated; run() is a loop over the one-cycle step.
 * Each cycle visits only the cores that have work. The issue stage
 * walks a mask of awake cores: a core whose issue cycle provably
 * repeats parks, and its idle/stall/mem-wait counters are added as
 * one span when it wakes (a fill or L1-hit completion, a knob, reset,
 * restore) or when tick() or run() returns, so every reader between
 * calls sees exact counts. The response stage reads a timing wheel of
 * core masks keyed by due cycle, marked when the crossbar grants a
 * response flit or an L1 hit queues its completion. Both sets are
 * single 64-bit masks, so GpuConfig::check caps numCores at 64.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "interconnect/crossbar.hpp"
#include "mem/address_map.hpp"
#include "mem/memory_partition.hpp"
#include "sim/simt_core.hpp"
#include "workload/app_profile.hpp"
#include "workload/trace_gen.hpp"

namespace ebm {

/** The simulated GPU executing one or more applications. */
class Gpu
{
  public:
    /**
     * @param cfg  configuration; cfg.numApps must equal apps.size()
     * @param apps one profile per co-scheduled application
     * @param core_share optional per-app core counts (sums to
     *        cfg.numCores); empty means an equal split
     */
    Gpu(const GpuConfig &cfg, std::vector<AppProfile> apps,
        std::vector<std::uint32_t> core_share = {});

    /** Advance one core-clock cycle. */
    void tick();

    /**
     * Run for @p cycles core cycles, every one simulated: the same
     * counts as that many tick() calls, with parked cores settled
     * once, at the end.
     */
    void run(Cycle cycles);

    /**
     * Always 0: the model ticks every cycle. Kept only for
     * perfbench/ebm_bench.cpp, whose simloop workload reports it as
     * ff_skipped_frac.
     */
    std::uint64_t fastForwardedCycles() const { return 0; }

    Cycle now() const { return now_; }

    // --- The TLP / bypass knobs ---------------------------------------

    /** Set the per-scheduler TLP limit of every core of @p app. */
    void setAppTlp(AppId app, std::uint32_t warps_per_scheduler);

    /** Current TLP limit of @p app. */
    std::uint32_t appTlp(AppId app) const;

    /** Enable/disable L1 bypass on every core of @p app. */
    void setAppL1Bypass(AppId app, bool bypass);

    /** Enable/disable L2 bypass on every core of @p app. */
    void setAppL2Bypass(AppId app, bool bypass);

    /**
     * Restrict @p app's L2 allocations to ways [first, first+count)
     * in every slice (Section VI-D cache-partitioning study).
     */
    void setAppL2WayPartition(AppId app, std::uint32_t first,
                              std::uint32_t count);

    // --- Statistics ----------------------------------------------------

    std::uint32_t numApps() const { return numApps_; }
    const GpuConfig &config() const { return cfg_; }
    const AddressMap &addressMap() const { return amap_; }

    /** Cores belonging to @p app. */
    const std::vector<CoreId> &coresOf(AppId app) const
    {
        return appCores_[app];
    }

    /** Read-only: a parked core wakes only through this class. */
    const SimtCore &core(CoreId id) const { return *cores_[id]; }

    /**
     * Cores whose issue stage is parked, one bit per core id. Their
     * counters are settled: exact whenever no call is running.
     */
    std::uint64_t parkedCores() const { return allCores_ & ~awake_; }
    const Crossbar &crossbar() const { return xbar_; }
    MemoryPartition &partition(PartitionId id) { return *partitions_[id]; }
    const MemoryPartition &partition(PartitionId id) const
    {
        return *partitions_[id];
    }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }
    std::uint32_t numPartitions() const
    {
        return static_cast<std::uint32_t>(partitions_.size());
    }

    /** Instructions retired by @p app since the last reset. */
    std::uint64_t appInstrs(AppId app) const;

    /** Aggregate attained data-bus cycles of @p app (all channels). */
    std::uint64_t appDataCycles(AppId app) const;

    /** Cumulative L1 miss rate of @p app across its cores. */
    double appL1MissRate(AppId app) const;

    /** Cumulative L2 miss rate of @p app across all partitions. */
    double appL2MissRate(AppId app) const;

    /**
     * Attained DRAM bandwidth of @p app as a fraction of the
     * theoretical peak of the whole memory system (the paper's BW).
     */
    double appAttainedBw(AppId app) const;

    /** Sum of all apps' attained bandwidth (utilization guideline 1). */
    double totalAttainedBw() const;

    /** IPC of @p app over the elapsed cycles. */
    double appIpc(AppId app) const;

    /** Start a new sampling window on every counter in the machine. */
    void checkpoint();

    /**
     * Clear all state for a fresh measurement. Always reset: the
     * cycle counter, every warp cursor (nextInstr, microIdx,
     * outstanding counts, streamPos — a relaunch replays the same
     * access stream), scheduler greedy pointers, in-flight traffic
     * (networks, holdover, partition queues), DRAM bank/timing state,
     * victim tags, and every statistics counter. Preserved: the knob
     * settings (TLP limits, L1/L2 bypass flags, L2 way partitions)
     * and — with @p flush_caches false — L1/L2 tag contents, so a
     * measurement can start against warm caches. TraceGen and the
     * address hash are stateless, so replayed runs are deterministic.
     */
    void reset(bool flush_caches = true);

    /** A held-over response plus its response-network input port,
     * captured at origin so retries never recompute the address
     * mapping (the port is a pure function of the line address). */
    struct HeldResponse
    {
        MemResponse resp;
        PartitionId port;
    };

    /**
     * The complete mutable machine state: cycle counter, every core,
     * both crossbar networks, every memory partition, and the
     * response holdover. Value-semantic and heap-compact — the warm
     * state cache can hold several. Capturing and restoring is only
     * valid between instances built from the same (config, apps,
     * core_share); restore() shape-checks and fatals on mismatch.
     * After restore(const Snapshot&), the machine replays
     * bit-identically to the machine the snapshot was taken from —
     * unlike reset(), which rewinds to cycle 0 and (always, for the
     * L2) flushes in-flight and cached state.
     */
    struct Snapshot
    {
        Cycle now = 0;
        std::vector<SimtCore::Snapshot> cores;
        Crossbar::Snapshot xbar;
        std::vector<MemoryPartition::Snapshot> partitions;
        std::vector<HeldResponse> holdover;

        std::size_t heapBytes() const;
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &snap);

  private:
    /** One cycle; tick() and run() settle parked cores after it. */
    void step();

    static std::uint64_t coreBit(CoreId id)
    {
        return std::uint64_t{1} << id;
    }

    /** Add every parked core's span through now_ to its counters. */
    void settleParked();

    /** Settle @p id's parked span and return it to the issue stage. */
    void wake(CoreId id);

    /** Mark @p id in the response wheel for cycle @p due. */
    void
    markDue(CoreId id, Cycle due)
    {
        wheel_[due & wheelMask_] |= coreBit(id);
    }

    /** Mark @p id for its earliest pending fill or L1-hit completion. */
    void markNextDue(CoreId id);

    GpuConfig cfg_;
    std::vector<AppProfile> apps_;
    AddressMap amap_;
    std::uint32_t numApps_;
    Cycle now_ = 0;

    std::vector<std::unique_ptr<TraceGen>> tracers_;
    std::vector<std::unique_ptr<SimtCore>> cores_;
    std::vector<std::vector<CoreId>> appCores_;
    Crossbar xbar_;
    std::vector<std::unique_ptr<MemoryPartition>> partitions_;
    std::vector<MemResponse> respScratch_;
    /** Responses blocked by response-network back-pressure. */
    std::vector<HeldResponse> holdover_;
    /** Swap partner of holdover_ (no per-cycle vector allocation). */
    std::vector<HeldResponse> holdoverScratch_;

    /** Cores whose issue stage runs; the others are parked. */
    std::uint64_t awake_ = 0;
    /** Mask of every core. */
    std::uint64_t allCores_ = 0;
    /** Per core: the last cycle its counters include while parked. */
    std::vector<Cycle> parkedAt_;
    /**
     * Response timing wheel: slot (cycle & wheelMask_) holds the cores
     * with a fill or L1-hit completion due at that cycle. Sized past
     * both latencies, so a mark never aliases a pending cycle; not
     * part of Snapshot (restore() rebuilds it).
     */
    std::vector<std::uint64_t> wheel_;
    std::uint64_t wheelMask_ = 0;
};

} // namespace ebm
