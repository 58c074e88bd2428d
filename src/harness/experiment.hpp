/**
 * @file
 * Shared experiment plumbing for the bench binaries: standard
 * configurations, SD-metric evaluation of runs against alone
 * profiles, the PBS(Offline) driver, and small math helpers.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pbs_search.hpp"
#include "harness/exhaustive.hpp"
#include "harness/profile_db.hpp"
#include "harness/run_result.hpp"
#include "harness/runner.hpp"
#include "workload/workload_suite.hpp"

namespace ebm {

/** SD-based scores of one shared run. */
struct SdScores
{
    std::vector<double> sds;
    double ws = 0.0;
    double fi = 0.0;
    double hs = 0.0;
};

/** The standard evaluation context every bench builds once. */
class Experiment
{
  public:
    /**
     * @param num_apps  co-scheduled application count (2 by default)
     * @param cache_path disk-cache file (shared by all benches);
     *                   empty = DiskCache::defaultPath(), i.e.
     *                   `$EBM_CACHE_DIR/ebm_results.cache` when the
     *                   env var is set, else `./ebm_results.cache`
     */
    explicit Experiment(std::uint32_t num_apps = 2,
                        const std::string &cache_path = "");

    /**
     * With EBM_CACHE_COMPACT=1, compacts the result store on exit so
     * a finished bench leaves the sorted canonical bytes behind —
     * what the cross-process CI job byte-compares across runs.
     */
    ~Experiment();

    Runner &runner() { return runner_; }
    ProfileDb &profiles() { return profiles_; }
    Exhaustive &exhaustive() { return exhaustive_; }
    DiskCache &cache() { return cache_; }

    /**
     * Worker threads used by sweeps and alone-run profiling
     * (0 = JobPool::defaultJobs(), i.e. EBM_JOBS / hardware
     * concurrency; 1 restores strictly serial execution). Output is
     * bit-identical at any setting.
     */
    void setJobs(std::uint32_t jobs);
    std::uint32_t jobs() const;

    /**
     * Runner for *online* (searching) policies. Real kernel
     * executions are orders of magnitude longer than our static
     * measurement span, so a PBS/DynCTA run is measured over a longer
     * horizon; otherwise the one-off search phase — which on real
     * hardware amortizes to ~nothing — would dominate the score.
     * Search overhead is still fully included in the measurement.
     */
    Runner &onlineRunner() { return onlineRunner_; }

    /** Alone IPC at bestTLP for each app of @p wl. */
    std::vector<double> aloneIpcs(const Workload &wl);

    /** Alone EB at bestTLP for each app of @p wl. */
    std::vector<double> aloneEbs(const Workload &wl);

    /** The ++bestTLP combination for @p wl. */
    TlpCombo bestTlpCombo(const Workload &wl);

    /** SD metrics of @p result for workload @p wl. */
    SdScores score(const Workload &wl, const RunResult &result);

    /**
     * Drive a PbsSearch to convergence against an offline ComboTable
     * (the PBS(Offline) scheme: same search logic, no runtime
     * overheads, no adaptation). @return the chosen combination.
     */
    TlpCombo pbsOffline(const ComboTable &table, EbObjective objective,
                        ScalingMode scaling,
                        const std::vector<double> &user_scale = {},
                        std::uint32_t *samples_out = nullptr);

    /** Standard experiment configuration (DESIGN.md scale). */
    static GpuConfig standardConfig(std::uint32_t num_apps);
    static RunOptions standardOptions();
    static RunOptions onlineOptions();

  private:
    DiskCache cache_;
    Runner runner_;
    Runner onlineRunner_;
    ProfileDb profiles_;
    Exhaustive exhaustive_;
};

/** Geometric mean of positive values. */
double gmean(const std::vector<double> &values);

} // namespace ebm
