/**
 * @file
 * Drives measured simulation runs: constructs the GPU for a workload,
 * applies a TLP policy, steps sampling windows through the EB monitor,
 * and extracts a RunResult over the measurement span only (warmup is
 * excluded for every scheme equally; online schemes keep searching
 * during measurement, so their search overhead is part of the score).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "core/eb_monitor.hpp"
#include "core/tlp_policy.hpp"
#include "harness/run_result.hpp"
#include "workload/app_profile.hpp"

namespace ebm {

/** Simulation driver for one workload + policy. */
class Runner
{
  public:
    /**
     * @param cfg  base configuration; numCores is used as-is, so solo
     *             profiling passes a config with coresPerApp cores
     * @param opts timing options shared by all runs of an experiment
     */
    Runner(GpuConfig cfg, RunOptions opts);

    /**
     * Run @p apps under @p policy and measure.
     *
     * @param core_share optional per-app core split (empty = equal)
     */
    RunResult run(const std::vector<AppProfile> &apps, TlpPolicy &policy,
                  std::vector<std::uint32_t> core_share = {}) const;

    /** Run a fixed TLP combination (convenience wrapper). */
    RunResult runStatic(const std::vector<AppProfile> &apps,
                        const TlpCombo &combo,
                        std::vector<std::uint32_t> core_share = {}) const;

    /** Run one application alone at a fixed TLP level. */
    RunResult runAlone(const AppProfile &app, std::uint32_t tlp) const;

    const GpuConfig &config() const { return cfg_; }
    const RunOptions &options() const { return opts_; }

    /**
     * Fingerprint of (config, options, catalog) for disk-cache keys:
     * any change to the simulated machine invalidates cached results.
     */
    std::string fingerprint() const;

    /**
     * Disk-cache key for one shared-run combination row of @p wl_name.
     * The single definition Exhaustive, the lease fabric, and tests
     * all share, so a key drift can never split the store.
     */
    std::string comboKey(const std::string &wl_name,
                         const TlpCombo &combo) const;

    /** Disk-cache key for one alone-profile ladder level. */
    std::string aloneKey(const std::string &app_name,
                         std::uint32_t tlp) const;

    /**
     * Disk-cache key for one run(@p apps, @p policy, @p core_share):
     * the app names for readers, then a hash of each app's profile
     * content, the core share and the policy's fingerprint.
     */
    std::string onlineKey(const std::vector<AppProfile> &apps,
                          const TlpPolicy &policy,
                          const std::vector<std::uint32_t> &core_share)
        const;

  private:
    GpuConfig cfg_;
    RunOptions opts_;
};

} // namespace ebm
