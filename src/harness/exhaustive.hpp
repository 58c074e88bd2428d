/**
 * @file
 * Exhaustive TLP-combination sweeps with disk-backed memoization.
 *
 * One sweep of all |levels|^n combinations yields, for a workload:
 *   - the SD-optimal combinations optWS / optFI / optHS,
 *   - the EB-optimal brute-force combinations BF-WS / BF-FI / BF-HS,
 *   - the full EB table PBS(Offline) searches over,
 *   - the iso-TLP curves of the pattern figures (Figs. 6 and 7).
 */
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "harness/disk_cache.hpp"
#include "harness/runner.hpp"
#include "workload/workload_suite.hpp"

namespace ebm {

/** Hash over a TLP combination (combo -> row lookups). */
struct TlpComboHash
{
    std::size_t
    operator()(const TlpCombo &combo) const
    {
        std::uint64_t h = mix64(combo.size());
        for (const std::uint32_t v : combo)
            h = hashIds(h, v);
        return static_cast<std::size_t>(h);
    }
};

/** All static-combination results for one workload. */
struct ComboTable
{
    std::vector<std::uint32_t> levels;    ///< Ladder per app.
    std::vector<TlpCombo> combos;         ///< Row order of results.
    std::vector<RunResult> results;       ///< One per combo.
    /** 1 = the combo's run failed after retries (result is zeros). */
    std::vector<std::uint8_t> skipped;

    /**
     * Index of @p combo in the table, O(1) via a combo -> row map
     * built once per table (and rebuilt automatically after rows are
     * appended). argmax/value evaluate every row through at(), so a
     * linear scan here made each sweep evaluation O(rows^2).
     */
    std::size_t indexOf(const TlpCombo &combo) const;

    /** Result for @p combo. */
    const RunResult &at(const TlpCombo &combo) const
    {
        return results[indexOf(combo)];
    }

    /** Did @p row fail after retries? */
    bool
    isSkipped(std::size_t row) const
    {
        return row < skipped.size() && skipped[row] != 0;
    }

  private:
    /** Lazily (re)built combo -> row map; rows are append-only. */
    mutable std::unordered_map<TlpCombo, std::size_t, TlpComboHash>
        rowIndex_;
};

/**
 * What happened during sweep() calls: how much was resumed from the
 * disk cache vs simulated, and whether anything was retried or
 * dropped. Benches print summaryLine() so partial tables are never
 * silent.
 */
struct SweepStatus
{
    std::size_t combos = 0;     ///< Combinations requested.
    std::size_t fromCache = 0;  ///< Resumed from the disk cache.
    std::size_t simulated = 0;  ///< Freshly simulated (and persisted).
    std::size_t fromPeers = 0;  ///< Filled by a cooperating process.
    std::size_t retried = 0;    ///< Extra attempts after failures.
    std::size_t skipped = 0;    ///< Dropped after exhausting retries.

    void
    add(const SweepStatus &other)
    {
        combos += other.combos;
        fromCache += other.fromCache;
        simulated += other.simulated;
        fromPeers += other.fromPeers;
        retried += other.retried;
        skipped += other.skipped;
    }

    /** One-line human-readable summary. */
    std::string summaryLine() const;
};

/** Which metric an arg-max over a ComboTable uses. */
enum class OptTarget : std::uint8_t {
    SdWS,  ///< opt-WS  (needs alone IPCs).
    SdFI,  ///< opt-FI.
    SdHS,  ///< opt-HS.
    EbWS,  ///< BF-WS.
    EbFI,  ///< BF-FI (optionally scaled).
    EbHS,  ///< BF-HS (optionally scaled).
    SumIpc,///< Instruction-throughput argmax (Observation 2 ablation).
};

/**
 * All |levels|^n TLP combinations in odometer order — the one row
 * order every sweep, probe, and lease schedule shares.
 */
std::vector<TlpCombo>
enumerateCombos(const std::vector<std::uint32_t> &levels,
                std::uint32_t num_apps);

/** Exhaustive-search service. */
class Exhaustive
{
  public:
    Exhaustive(const Runner &runner, DiskCache &cache);

    /**
     * Simulate (or fetch) the full combination tables of @p wls in
     * one fill pass.
     *
     * Cache probes run serially, workload by workload, each in
     * odometer order; the misses of every workload go to one
     * row-fill engine call (row_fill.hpp), which dispatches them onto
     * jobs() workers, submitted by descending 1 + sum of TLP levels
     * across the whole batch (ties in row order) to shrink the
     * straggler tail at the end-of-fill barrier. Results are
     * committed into pre-assigned rows, making every table — and,
     * because entries persist sorted, the compacted cache file —
     * bit-identical to one serial sweep per workload at any job count
     * and any submission order.
     *
     * Every completed combination is persisted to the disk cache
     * as it finishes, so a killed or crashed sweep resumes from the
     * completed combinations on the next run. A combination whose run
     * fails is retried up to maxRetries() times, then recorded as
     * skipped (zero result, flagged in the table) rather than
     * aborting the whole sweep. Injected run-failure schedules and
     * chaos crash points are pre-drawn serially at dispatch, in the
     * order one-at-a-time sweeps drew them (workload, then odometer
     * row), so retry/skip accounting is identical at any job count
     * and to one sweep(wl) call per workload.
     *
     * A sweep with a miss on a writable store leases its rows from
     * the store's same-host coordinator, so N workers sharing the
     * store split a cold sweep through the engine's lease gate:
     * each worker leases a row before simulating it, rows leased
     * elsewhere are assembled from the shared store in row order,
     * and a killed peer's rows are taken over after its leases go
     * stale — the tables, fault accounting, and compacted store
     * bytes stay identical at any (process x EBM_JOBS) combination.
     *
     * Every workload of a batch must have the same app count (one
     * record shape per fill) and a distinct name.
     *
     * @param levels TLP ladder per app; empty = the standard ladder
     * @return one table per workload, in @p wls order
     */
    std::vector<ComboTable>
    sweep(const std::vector<Workload> &wls,
          std::vector<std::uint32_t> levels = {});

    /** The table of one workload: a one-workload batch. */
    ComboTable sweep(const Workload &wl,
                     std::vector<std::uint32_t> levels = {});

    /**
     * Probe-only sweep: assemble the full combination table for @p wl
     * from the disk cache *without dispatching any simulation*.
     * @return the table when every combination is present and valid,
     * nullopt otherwise (never a partial table). The advisor serving
     * daemon's hit path — a query answered in microseconds from the
     * loaded store, falling back to an async sweep() only on miss.
     */
    std::optional<ComboTable>
    sweepCached(const Workload &wl,
                std::vector<std::uint32_t> levels = {}) const;

    /** Cumulative status across every sweep() on this instance. */
    const SweepStatus &status() const { return status_; }

    /** Extra attempts per failing combination before skipping it. */
    std::uint32_t maxRetries() const { return maxRetries_; }

    /** Worker threads per sweep (0 = JobPool::defaultJobs()). */
    std::uint32_t jobs() const;
    void setJobs(std::uint32_t jobs) { jobs_ = jobs; }

    /**
     * Arg-max combination of @p table under @p target.
     *
     * @param alone_ipcs  per-app alone IPC at bestTLP (SD targets)
     * @param eb_scale    per-app EB scale factors (EB-FI / EB-HS);
     *                    empty = unscaled
     */
    static TlpCombo
    argmax(const ComboTable &table, OptTarget target,
           const std::vector<double> &alone_ipcs = {},
           const std::vector<double> &eb_scale = {});

    /** The metric value of @p combo under @p target (same params). */
    static double
    value(const ComboTable &table, const TlpCombo &combo,
          OptTarget target, const std::vector<double> &alone_ipcs = {},
          const std::vector<double> &eb_scale = {});

  private:
    const Runner &runner_;
    DiskCache &cache_;
    SweepStatus status_;
    std::uint32_t maxRetries_ = 2;
    std::uint32_t jobs_ = 0; ///< 0 = resolve JobPool::defaultJobs().
};

} // namespace ebm
