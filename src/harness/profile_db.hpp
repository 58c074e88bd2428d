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
     * Profile (or fetch) every application of @p apps in one fill
     * pass. Apps already profiled on this instance, and repeats within
     * @p apps, request no rows. The store is probed app by app, level
     * by level; every missing level of every listed app then goes to
     * one row-fill engine call (row_fill.hpp) on jobs() workers,
     * submitted by tlpSortKey across the whole batch and committed
     * into pre-assigned (app, level) slots. Profiles, status counts
     * and the compacted store are bit-identical to one profile(app)
     * call per app, serial or not, at any job count.
     *
     * An armed fault injector keeps the pass serial and unleased, in
     * (app, level) order: the injector sees the same query sequence
     * as one-at-a-time calls.
     *
     * @return the profiles, in @p apps order.
     */
    std::vector<AppAloneProfile>
    profile(const std::vector<AppProfile> &apps);

    /** Profile (or fetch) one application: a one-app batch. */
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
     * the group-average alone EB per group (index 0 unused). Profiles
     * @p apps as one batch first.
     */
    std::vector<double>
    assignGroups(const std::vector<AppProfile> &apps);

    /** Group-average alone EB for @p app (assignGroups first). */
    double groupScale(const std::string &app_name) const;

  private:
    /** Profile every app of @p apps not yet in profiles_. */
    void fill(const std::vector<AppProfile> &apps);

    const Runner &runner_;
    DiskCache &cache_;
    std::map<std::string, AppAloneProfile> profiles_;
    std::vector<double> groupMeans_; ///< [1..4].
    SweepStatus status_;
    std::uint32_t jobs_ = 0; ///< 0 = resolve JobPool::defaultJobs().
};

} // namespace ebm
