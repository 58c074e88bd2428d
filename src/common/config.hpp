/**
 * @file
 * Simulated GPU configuration, mirroring the paper's Table I at a scale
 * that runs on one host core. Every experiment uses one GpuConfig for
 * all schemes, so relative comparisons are apples-to-apples.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ebm {

/** GDDR5-like DRAM timing in command-clock cycles (Table I, Hynix). */
struct DramTiming
{
    std::uint32_t tCL = 12;   ///< CAS latency.
    std::uint32_t tRP = 12;   ///< Row precharge.
    std::uint32_t tRCD = 12;  ///< RAS-to-CAS delay.
    std::uint32_t tRAS = 28;  ///< Row active time.
    std::uint32_t tCCDl = 3;  ///< Column-to-column, same bank group.
    std::uint32_t tCCDs = 2;  ///< Column-to-column, different group.
    /**
     * Row-to-row activate delay. Together with burstCycles this sets
     * the utilization floor of row-locality-free traffic (2 chunk
     * lines x burstCycles / tRRD): the gap between that floor and
     * full-bus streaming is what TLP-induced row thrashing costs.
     */
    std::uint32_t tRRD = 8;
    std::uint32_t burstCycles = 2; ///< Data-bus cycles per 128B burst.

    bool operator==(const DramTiming &) const = default;
};

/** Cache geometry for one cache instance. */
struct CacheGeometry
{
    std::uint32_t sizeBytes = 16 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t lineBytes = 128;
    std::uint32_t mshrEntries = 32;      ///< Distinct in-flight lines.
    std::uint32_t mshrTargetsPerEntry = 8;

    std::uint32_t numSets() const { return sizeBytes / (assoc * lineBytes); }

    bool operator==(const CacheGeometry &) const = default;
};

/**
 * Top-level simulated-GPU parameters.
 *
 * Defaults are a scaled-down K20m-class chip: the paper's ratios
 * (warps per core, schedulers per core, L1/L2 per-unit geometry, DRAM
 * banks/groups, 256B channel interleave) are kept; the core and channel
 * counts are halved-ish so a 64-combination exhaustive search finishes
 * in seconds on a laptop.
 */
struct GpuConfig
{
    // --- Cores -----------------------------------------------------
    std::uint32_t numCores = 16;          ///< Total SIMT cores.
    std::uint32_t maxWarpsPerCore = 48;   ///< Hardware warp contexts.
    std::uint32_t schedulersPerCore = 2;  ///< Warp issue arbiters.
    std::uint32_t simtWidth = 32;         ///< Threads per warp.
    std::uint32_t maxIssuePerScheduler = 1;

    // --- Latencies (core cycles) ------------------------------------
    std::uint32_t l1HitLatency = 28;
    std::uint32_t l2HitLatency = 120;
    std::uint32_t icntRequestLatency = 8;  ///< Core -> partition hop.
    std::uint32_t icntResponseLatency = 8; ///< Partition -> core hop.

    // --- Caches -----------------------------------------------------
    CacheGeometry l1 = {16 * 1024, 4, 128, 48, 8};
    CacheGeometry l2Slice = {256 * 1024, 16, 128, 64, 8};

    // --- Memory system ----------------------------------------------
    std::uint32_t numPartitions = 6;    ///< Memory channels / L2 slices.
    std::uint32_t banksPerChannel = 16;
    std::uint32_t bankGroups = 4;
    /**
     * Row-buffer size and channel-interleave chunk. The chunk must be
     * a few cache lines and the row several chunks so a streaming
     * warp revisits an open row across loop iterations — the row
     * locality that rising TLP destroys (the knee of Figs. 2 and 6).
     */
    std::uint32_t rowBytes = 4096;
    std::uint32_t interleaveBytes = 1024;
    std::uint32_t frfcfsQueueDepth = 64;
    /**
     * Starvation guard: a request older than this many DRAM cycles is
     * scheduled ahead of younger row hits. Without a cap, one app's
     * row-hit stream can starve a co-runner's row misses indefinitely
     * (the classic FR-FCFS pathology).
     */
    std::uint32_t frfcfsCapCycles = 512;
    DramTiming dram;

    /** DRAM command clock as a fraction of the core clock. */
    double dramClockRatio = 924.0 / 1400.0;

    // --- Interconnect -----------------------------------------------
    std::uint32_t icntInputQueueDepth = 8;  ///< Per (core, partition).
    std::uint32_t icntOutputQueueDepth = 8;

    // --- Multi-programming -------------------------------------------
    std::uint32_t numApps = 1;

    /**
     * TLP limit levels evaluated per application (warps per scheduler).
     * 8 levels -> 8x8 = 64 two-application combinations, matching the
     * paper's exhaustive-search space. 24 is maxTLP (48 warps across
     * 2 schedulers).
     */
    static const std::vector<std::uint32_t> &tlpLevels();

    /** Maximum per-scheduler TLP (maxTLP). */
    std::uint32_t maxTlp() const { return maxWarpsPerCore / schedulersPerCore; }

    /** Cores owned by an app under an equal static partition. */
    std::uint32_t coresPerApp() const { return numCores / numApps; }

    /**
     * Theoretical peak data-bus throughput in bytes per core cycle,
     * summed over all channels. Used to normalize attained bandwidth.
     */
    double peakBytesPerCoreCycle() const;

    /**
     * Collect *all* consistency problems (not just the first), with
     * actionable messages. Empty = valid.
     */
    std::vector<Error> check() const;

    /** Validate internal consistency; fatal() listing every problem. */
    void validate() const;

    bool operator==(const GpuConfig &) const = default;
};

/**
 * Strict unsigned-integer parse of @p text into @p out: the whole
 * string must be a base-10 number — leading signs, trailing garbage
 * ("8x"), and empty strings are rejected. The single parser behind
 * every numeric setting (RuntimeConfig's EBM_* variables, daemon
 * flags, wire-protocol fields), so "accepts trailing garbage" bugs
 * cannot creep in per call site.
 */
bool parseUint(const char *text, std::uint64_t &out);

/**
 * Deterministic hash over *every* field of @p cfg.
 *
 * Two configs hash equal iff they would build identical machines, so
 * this is safe to embed in cache keys (the historical hand-picked
 * field subset silently aliased configs that differed only in, e.g.,
 * DRAM timings or cache associativity). Extending GpuConfig means
 * extending this function — the adjacent static_assert on the struct
 * size is the tripwire.
 */
std::uint64_t configHash(const GpuConfig &cfg);

/** A per-application TLP assignment (warps per scheduler, per app). */
using TlpCombo = std::vector<std::uint32_t>;

} // namespace ebm
