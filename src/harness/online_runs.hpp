/**
 * @file
 * Online-policy runs as store rows. A run of a searching policy (PBS,
 * ++DynCTA, Mod+Bypass) is keyed by Runner::onlineKey, probed in job
 * order and, on a miss, filled through the row-fill engine
 * (row_fill.hpp) like a sweep row: on EBM_JOBS workers, leased with
 * cooperating processes, and committed into pre-assigned job slots.
 *
 * Record layout for n apps (all doubles):
 *
 *   ipc, bw, l1Mr, l2Mr per app        4n
 *   measuredCycles, totalBw            2
 *   finalTlp per app                   n
 *   samplesTaken                       1
 *   timeline entry count T             1
 *   T x (cycle, TLP per app)           T (n + 1)
 *
 * The count ends the fixed head, so the record describes its own
 * length (onlineRecordShape); any other shape is a miss.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tlp_policy.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/run_result.hpp"
#include "harness/runner.hpp"
#include "workload/app_profile.hpp"

namespace ebm {

/** One online-policy run of a batch: Runner::run's arguments. */
struct OnlineJob
{
    const Runner *runner = nullptr; ///< Machine and timing; not owned.
    std::vector<AppProfile> apps;
    /** This job's own policy instance, used by its run alone. */
    std::unique_ptr<TlpPolicy> policy;
    std::vector<std::uint32_t> coreShare = {}; ///< Empty = equal split.
};

/** The record shape of an online run over @p num_apps apps. */
RecordShape onlineRecordShape(std::size_t num_apps);

/** @p result as an online record (layout above). */
std::vector<double> encodeOnlineRecord(const RunResult &result);

/** The inverse of encodeOnlineRecord; @p values must fit
 * onlineRecordShape(@p num_apps). */
RunResult decodeOnlineRecord(const std::vector<double> &values,
                             std::size_t num_apps);

/**
 * Read or simulate every run of @p batch, whose jobs must all have
 * the same app count. Probes the store in job order, fills the misses
 * through fillRows() on @p jobs workers, and adds the row counts to
 * @p status. @return one result per job, in job order, each decoded
 * from its record, so a run reads the same cold or warm.
 *
 * A runner's fault injector only supplies the rows' chaos crash
 * points, drawn serially in job order; the runs themselves are
 * fault-free.
 */
std::vector<RunResult> runOnlineJobs(DiskCache &cache, std::uint32_t jobs,
                                     const std::vector<OnlineJob> &batch,
                                     SweepStatus &status);

} // namespace ebm
