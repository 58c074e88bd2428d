/**
 * @file
 * Per-worker pooling of simulator instances.
 *
 * A sweep runs thousands of short measurements against a handful of
 * distinct machine shapes. Constructing a Gpu allocates every core,
 * cache, queue, and DRAM bank; the reset(flush_caches) path locked
 * down in PR 3 restores all of that to the post-construction state
 * without a single allocation. The pool exploits this: Runner::run
 * leases an instance keyed by (config, apps, core share), and on
 * release the instance is kept idle for the next row of the same
 * shape, which is reset + knob-restored instead of constructed.
 *
 * Keying is by *full equality* of the configuration, application
 * profiles, and core share — never by hash alone — so two configs can
 * never silently collide on one pooled machine.
 *
 * Poisoning: a lease destroyed while an exception is unwinding (an
 * injected fault, a monitor sanity fatal) discards the instance
 * instead of returning it; half-mutated state is never reused.
 *
 * Pools are thread-local (one per worker), so leases never contend
 * and a poisoned worker cannot hand bad state to a sibling. The
 * shared immutable state (TraceArtifact) is process-wide; only the
 * mutable machine is per-worker. The pool holds machines only: warm
 * checkpoints live in the process-wide WarmStateCache, and at most
 * kMaxIdle idle machines are kept.
 *
 * The pool is an accelerator, never a semantic: setEnabled(false)
 * makes every lease construct-and-discard, and the golden-digest and
 * pooled-vs-fresh tests pin that both modes produce bit-identical
 * results.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "workload/app_profile.hpp"

namespace ebm {

class Gpu;

/** Thread-local cache of reusable Gpu instances. */
class GpuPool
{
  public:
    /** Reuse accounting (per pool, i.e. per worker thread). */
    struct Stats
    {
        std::uint64_t hits = 0;      ///< Leases served by reuse.
        std::uint64_t misses = 0;    ///< Leases that constructed.
        std::uint64_t discards = 0;  ///< Poisoned/disabled releases.
        std::uint64_t evictions = 0; ///< Idle instances displaced.
    };

    /** RAII lease of one Gpu; returns or discards on destruction. */
    class Lease
    {
      public:
        Lease(Lease &&other) noexcept;
        Lease &operator=(Lease &&) = delete;
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        ~Lease();

        Gpu &gpu() { return *gpu_; }

        /** Force discard on release (half-mutated state). */
        void poison() { poisoned_ = true; }

      private:
        friend class GpuPool;
        struct Key
        {
            GpuConfig cfg;
            std::vector<AppProfile> apps;
            std::vector<std::uint32_t> coreShare;

            bool operator==(const Key &) const = default;
        };

        Lease(GpuPool *pool, Key key, std::unique_ptr<Gpu> gpu);

        GpuPool *pool_; ///< Null = pooling disabled; just discard.
        Key key_;
        std::unique_ptr<Gpu> gpu_;
        bool poisoned_ = false;
        int uncaughtAtAcquire_ = 0;
    };

    GpuPool() = default;
    GpuPool(const GpuPool &) = delete;
    GpuPool &operator=(const GpuPool &) = delete;

    /**
     * Lease an instance for (cfg, apps, core_share). cfg.numApps must
     * equal apps.size() (the Gpu constructor validates). A pooled
     * instance is reset(true) + restoreKnobDefaults()ed before it is
     * handed out, so the caller sees construction-fresh state either
     * way.
     */
    Lease acquire(const GpuConfig &cfg,
                  const std::vector<AppProfile> &apps,
                  std::vector<std::uint32_t> core_share);

    /** Drop all idle instances (tests; memory pressure). */
    void clear();

    /** Idle instances currently held. */
    std::size_t idleCount() const { return idle_.size(); }

    const Stats &stats() const { return stats_; }

    /** This thread's pool. */
    static GpuPool &threadLocal();

    /** Process-wide enable switch (on by default). */
    static bool enabled();
    static void setEnabled(bool enabled);

  private:
    struct Entry
    {
        Lease::Key key;
        std::unique_ptr<Gpu> gpu;
    };

    void release(Lease::Key key, std::unique_ptr<Gpu> gpu, bool poisoned);

    /** Idle instances, oldest first; small, scanned linearly. */
    std::vector<Entry> idle_;
    Stats stats_;

    static constexpr std::size_t kMaxIdle = 4;
};

} // namespace ebm
