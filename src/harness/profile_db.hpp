/**
 * @file
 * Alone-run profiling: for each application, sweep the TLP ladder
 * while it runs alone on its core share, find bestTLP (highest IPC),
 * and record IPC/EB at every level. This supplies:
 *   - the ++bestTLP baseline and the SD denominators (IPC-Alone),
 *   - Table IV (IPC@bestTLP, EB@bestTLP, G1-G4 grouping),
 *   - Fig. 2 (per-level IPC/BW/CMR/EB curves),
 *   - scaling factors for the fairness-oriented schemes.
 * Results are cached on disk keyed by the solo-runner fingerprint.
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/runner.hpp"
#include "metrics/metrics.hpp"
#include "workload/app_profile.hpp"

namespace ebm {

/** Alone-run characterization of one application. */
struct AppAloneProfile
{
    std::string name;
    std::vector<std::uint32_t> levels; ///< TLP ladder swept.
    std::vector<AppRunStats> perLevel; ///< Stats at each level.
    std::uint32_t bestTlp = 0;         ///< argmax IPC level.
    double ipcAtBest = 0.0;
    double ebAtBest = 0.0;
    std::uint32_t group = 0;           ///< 1..4 by EB quartile.
};

/** Profiling service with disk-backed memoization. */
class ProfileDb
{
  public:
    /**
     * @param runner shared-run runner (solo geometry derived from it)
     * @param cache  disk cache for memoization
     */
    ProfileDb(const Runner &runner, DiskCache &cache);

    /**
     * Profile (or fetch) one application. Cache-missing ladder levels
     * are independent solo simulations, filled by the row-fill engine
     * (row_fill.hpp) on jobs() workers and committed in level order —
     * the profile and the compacted cache file are bit-identical to a
     * serial pass. An armed fault injector runs the misses serially,
     * unleased, in level order.
     */
    const AppAloneProfile &profile(const AppProfile &app);

    /**
     * Probe-only profile: assemble @p app's alone profile entirely
     * from memory or the disk cache, *without simulating* missing
     * levels. @return nullopt when any ladder level is absent (never
     * a partial profile). Group assignment is not attempted (group
     * stays 0, as in a fresh profile()). The advisor serving daemon's
     * hit path.
     */
    std::optional<AppAloneProfile>
    profileCached(const AppProfile &app) const;

    /** Ladder levels profile() requested, one row each: from cache,
     * simulated, or from peers. A memoized profile requests none. */
    const SweepStatus &status() const { return status_; }

    /** Worker threads per profile (0 = JobPool::defaultJobs()). */
    std::uint32_t jobs() const;
    void setJobs(std::uint32_t jobs) { jobs_ = jobs; }

    /**
     * Assign G1..G4 groups to @p apps by alone-EB quartile and return
     * the group-average alone EB per group (index 0 unused).
     */
    std::vector<double>
    assignGroups(const std::vector<AppProfile> &apps);

    /** Group-average alone EB for @p app (assignGroups first). */
    double groupScale(const std::string &app_name) const;

  private:
    const Runner &runner_;
    DiskCache &cache_;
    std::map<std::string, AppAloneProfile> profiles_;
    std::vector<double> groupMeans_; ///< [1..4].
    SweepStatus status_;
    std::uint32_t jobs_ = 0; ///< 0 = resolve JobPool::defaultJobs().
};

} // namespace ebm
