/**
 * @file
 * Process-wide cache of warm-state checkpoints.
 *
 * A sweep runs the same policy-neutral warmup prefix — default knobs,
 * window closes, nothing else — once per (machine, apps, core share,
 * window length) shape and then forks every combination from the
 * captured state instead of re-simulating the prefix per row. The
 * capture is a value-semantic Gpu::Snapshot plus the EB monitor's
 * state and the sample of the window that closed at the fork point;
 * restoring it replays bit-identically against a fresh cold run (the
 * snapshot property tests are the oracle).
 *
 * Checkpoints are keyed by (base key, elapsed cycles). A request for a
 * deeper target resumes from the nearest stored shallower checkpoint
 * and warms only the remainder, so a PBS run (fork at one window) and
 * a static sweep (fork at the warmup boundary) share work. Concurrent
 * requests for the same key are single-flighted: one thread computes
 * on its own leased machine while the others wait on the result.
 *
 * The cache is an accelerator, never a semantic: EBM_SNAPSHOT=0
 * (RuntimeConfig::snapshot) disables capture and reuse entirely, and the
 * byte-compare tests pin that both modes produce identical results.
 * Retained bytes are bounded by an LRU budget (kSnapshotBudgetBytes,
 * 256 MiB). This is the only checkpoint cache: every fork in
 * Runner::run comes from warmTo, and pooled machines (GpuPool) carry
 * no snapshots of their own. Fault-injecting runs never reach this
 * cache (the Runner disables forking whenever an injector is present).
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "core/eb_monitor.hpp"
#include "core/eb_sample.hpp"
#include "sim/gpu.hpp"

namespace ebm {

/** Byte budget of the WarmStateCache LRU: the one cache of warm-state
 * snapshots in the process. */
inline constexpr std::size_t kSnapshotBudgetBytes = std::size_t{256} << 20;

/** Process-wide LRU of policy-neutral warm-state checkpoints. */
class WarmStateCache
{
  public:
    /**
     * State captured at one window close of the neutral prefix: the
     * machine *before* the post-window checkpoint() call, the
     * monitor's internal state, and the sample of the window that
     * just closed. A run resuming here processes that window's tail
     * (policy callback, checkpoint, measurement start, relaunch
     * check) and continues — exactly the cold run's trajectory.
     */
    struct Checkpoint
    {
        Gpu::Snapshot gpu;
        EbMonitor::Snapshot monitor;
        EbSample sample;
        Cycle elapsed = 0;

        std::size_t
        heapBytes() const
        {
            return gpu.heapBytes() +
                   sample.apps.capacity() * sizeof(AppRunStats) +
                   sample.tlp.capacity() * sizeof(std::uint32_t) +
                   monitor.lastGood.apps.capacity() *
                       sizeof(AppRunStats) +
                   monitor.lastGood.tlp.capacity() *
                       sizeof(std::uint32_t);
        }
    };

    /** Reuse accounting (process-wide). */
    struct Stats
    {
        std::uint64_t hits = 0;      ///< Served from a stored capture.
        std::uint64_t misses = 0;    ///< Computed (cold or resumed).
        std::uint64_t resumes = 0;   ///< Misses seeded by a shallower
                                     ///< stored checkpoint.
        std::uint64_t evictions = 0; ///< LRU-budget displacements.
        std::size_t retainedBytes = 0;
    };

    /**
     * Return the checkpoint of the neutral prefix at exactly @p target
     * elapsed cycles, computing it on @p gpu on a miss. @p gpu must be
     * construction-fresh (a pool lease guarantees this); after the
     * call its state is unspecified — the caller restores from the
     * returned checkpoint either way. Returns nullptr when the cache
     * is disabled. @p relay_latency is the monitor's relay model and
     * must match the calling Runner's.
     */
    std::shared_ptr<const Checkpoint> warmTo(std::uint64_t base_key,
                                             Gpu &gpu, Cycle target,
                                             Cycle window_cycles,
                                             Cycle relay_latency);

    Stats stats() const;

    /** Drop every stored checkpoint (tests; memory pressure). */
    void clear();

    /**
     * Override the LRU byte budget (tests shrink it to force the
     * eviction path; the default is kSnapshotBudgetBytes).
     */
    void setBudgetBytes(std::size_t bytes);

    /** The process-wide instance. */
    static WarmStateCache &instance();


  private:
    struct Entry
    {
        std::uint64_t baseKey = 0;
        Cycle elapsed = 0;
        std::shared_ptr<const Checkpoint> checkpoint;
    };

    /** Simulate the prefix on @p gpu up to @p target, optionally
     * seeded from a shallower checkpoint, and fill @p out. */
    static void computeWarm(Gpu &gpu, const Checkpoint *seed,
                            Cycle target, Cycle window_cycles,
                            Cycle relay_latency, Checkpoint &out);

    void insertLocked(std::uint64_t base_key,
                      std::shared_ptr<const Checkpoint> cp);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    /** Most-recently used first; small, scanned linearly. */
    std::list<Entry> entries_;
    /** (baseKey, elapsed) pairs currently being computed. */
    std::vector<std::pair<std::uint64_t, Cycle>> inflight_;
    Stats stats_;
    std::size_t budgetBytes_;

    WarmStateCache();
};

} // namespace ebm
