#include "harness/exhaustive.hpp"

#include <cmath>
#include <optional>
#include <sstream>

#include "common/job_pool.hpp"
#include "common/log.hpp"
#include "harness/lease_provider.hpp"
#include "harness/row_fill.hpp"
#include "metrics/metrics.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {

std::string
SweepStatus::summaryLine() const
{
    std::ostringstream out;
    out << "sweep status: " << combos << " combos (" << fromCache
        << " from cache, " << simulated << " simulated, ";
    if (fromPeers > 0)
        out << fromPeers << " from peers, ";
    out << retried << " retried, " << skipped << " skipped)";
    return out.str();
}

std::size_t
ComboTable::indexOf(const TlpCombo &combo) const
{
    // Rebuild the map whenever rows were appended since it was last
    // built (tables are filled with push_back, then queried heavily
    // by argmax/value — a row count mismatch is the build trigger).
    if (rowIndex_.size() != combos.size()) {
        rowIndex_.clear();
        rowIndex_.reserve(combos.size());
        for (std::size_t i = 0; i < combos.size(); ++i)
            rowIndex_.emplace(combos[i], i);
    }
    const auto it = rowIndex_.find(combo);
    if (it == rowIndex_.end())
        panic("ComboTable: combination not in table");
    return it->second;
}

Exhaustive::Exhaustive(const Runner &runner, DiskCache &cache)
    : runner_(runner), cache_(cache)
{
}

std::vector<TlpCombo>
enumerateCombos(const std::vector<std::uint32_t> &levels,
                std::uint32_t num_apps)
{
    // Odometer order: app 0 is the fastest-spinning digit. This
    // enumeration fixes each combination's row up front so workers
    // (and cooperating processes) commit results into pre-assigned
    // slots.
    std::vector<TlpCombo> combos;
    std::vector<std::size_t> idx(num_apps, 0);
    while (true) {
        TlpCombo combo(num_apps);
        for (std::uint32_t a = 0; a < num_apps; ++a)
            combo[a] = levels[idx[a]];
        combos.push_back(std::move(combo));

        std::uint32_t pos = 0;
        while (pos < num_apps) {
            if (++idx[pos] < levels.size())
                break;
            idx[pos] = 0;
            ++pos;
        }
        if (pos == num_apps)
            break;
    }
    return combos;
}

namespace {

/** A combo row's store encoding: ipc, bw, l1Mr, l2Mr per app, then
 * the measured cycles. */
std::vector<double>
encodeComboRow(const RunResult &result)
{
    std::vector<double> v;
    for (const AppRunStats &a : result.apps) {
        v.push_back(a.ipc);
        v.push_back(a.bw);
        v.push_back(a.l1Mr);
        v.push_back(a.l2Mr);
    }
    v.push_back(static_cast<double>(result.measuredCycles));
    return v;
}

/** Decode a validated cache vector back into a RunResult (the inverse
 * of encodeComboRow). */
RunResult
decodeComboRow(const std::vector<double> &v, const TlpCombo &combo,
               std::uint32_t num_apps)
{
    RunResult result;
    result.apps.resize(num_apps);
    for (std::uint32_t a = 0; a < num_apps; ++a) {
        result.apps[a].ipc = v[4 * a + 0];
        result.apps[a].bw = v[4 * a + 1];
        result.apps[a].l1Mr = v[4 * a + 2];
        result.apps[a].l2Mr = v[4 * a + 3];
        result.totalBw += result.apps[a].bw;
    }
    result.measuredCycles = static_cast<Cycle>(v.back());
    result.finalTlp = combo;
    return result;
}

} // namespace

std::optional<ComboTable>
Exhaustive::sweepCached(const Workload &wl,
                        std::vector<std::uint32_t> levels) const
{
    const auto n =
        static_cast<std::uint32_t>(resolveApps(wl).size());
    if (levels.empty())
        levels = GpuConfig::tlpLevels();

    ComboTable table;
    table.levels = levels;
    table.combos = enumerateCombos(levels, n);
    table.results.resize(table.combos.size());
    table.skipped.assign(table.combos.size(), 0);

    for (std::size_t row = 0; row < table.combos.size(); ++row) {
        const std::string key =
            runner_.comboKey(wl.name, table.combos[row]);
        const auto cached = cache_.getValidated(key, 4u * n + 1);
        if (!cached)
            return std::nullopt;
        table.results[row] = decodeComboRow(*cached,
                                            table.combos[row], n);
    }
    return table;
}

std::uint32_t
Exhaustive::jobs() const
{
    return jobs_ != 0 ? jobs_ : JobPool::defaultJobs();
}

ComboTable
Exhaustive::sweep(const Workload &wl, std::vector<std::uint32_t> levels)
{
    return std::move(
        sweep(std::vector<Workload>{wl}, std::move(levels)).front());
}

std::vector<ComboTable>
Exhaustive::sweep(const std::vector<Workload> &wls,
                  std::vector<std::uint32_t> levels)
{
    if (levels.empty())
        levels = GpuConfig::tlpLevels();

    std::vector<std::vector<AppProfile>> apps;
    for (const Workload &wl : wls) {
        apps.push_back(resolveApps(wl));
        if (apps.back().size() != apps.front().size())
            fatal("Exhaustive: " + wl.name + " has " +
                  std::to_string(apps.back().size()) +
                  " apps; a sweep batch needs one app count");
        for (std::size_t w = 0; w + 1 < apps.size(); ++w) {
            if (wls[w].name == wl.name)
                fatal("Exhaustive: " + wl.name +
                      " is listed twice in one sweep batch");
        }
    }
    const auto n = static_cast<std::uint32_t>(
        apps.empty() ? 0 : apps.front().size());
    const std::vector<TlpCombo> combos = enumerateCombos(levels, n);

    std::vector<ComboTable> tables(wls.size());
    std::vector<SweepStatus> statuses(wls.size());

    // Serial pass in (workload, row) order: cache probes and the
    // injected run-failure pre-draw both consume ordered global state
    // (the cache's warnings, the injector's query counter), so they
    // happen here — in exactly the order one all-serial sweep per
    // workload used — no matter how many workers run the misses
    // afterwards. Cooperating processes that start cold draw
    // identical schedules (same seed, same row order), so each one's
    // view of which attempts fail is the same no matter which process
    // ends up running a row.
    FaultInjector *injector = runner_.options().faultInjector;
    // Per fill row: its workload, its table row, and how many leading
    // attempts the pre-drawn fault schedule fails.
    std::vector<FillRow> fill;
    std::vector<std::size_t> fill_wl;
    std::vector<std::size_t> fill_row;
    std::vector<std::uint32_t> injected_fails;
    for (std::size_t w = 0; w < wls.size(); ++w) {
        ComboTable &table = tables[w];
        table.levels = levels;
        table.combos = combos;
        const std::size_t total = combos.size();
        statuses[w].combos = total;
        table.results.resize(total);
        table.skipped.assign(total, 0);

        for (std::size_t row = 0; row < total; ++row) {
            const TlpCombo &combo = combos[row];
            std::string key = runner_.comboKey(wls[w].name, combo);

            // A wrong-shape or non-finite cache entry (stale layout,
            // survived-but-bogus line, pre-guard NaN) is a miss:
            // recompute and overwrite rather than trust.
            if (const auto cached =
                    cache_.getValidated(key, 4u * n + 1)) {
                table.results[row] = decodeComboRow(*cached, combo, n);
                ++statuses[w].fromCache;
                continue;
            }

            FillRow miss;
            miss.key = std::move(key);
            miss.sortKey = tlpSortKey(combo);
            std::uint32_t fails = 0;
            if (injector != nullptr) {
                // Pre-draw this row's injected failures with the same
                // query sequence the serial attempt loop performed:
                // one query per attempt, stopping at the first
                // non-firing (successful) attempt or when the retry
                // budget is gone.
                while (fails <= maxRetries_ &&
                       injector->shouldFire(FaultInjector::Point::RunFail))
                    ++fails;
                // Whole-process crash points are pre-drawn here too:
                // the shared injector is only ever queried serially,
                // and the draw order is row order regardless of
                // worker count, so a seeded chaos schedule kills the
                // same row at the same point on every run. Per-point
                // counters are independent, so disarmed points leave
                // existing schedules untouched.
                miss.crashClaimHeld = injector->shouldFire(
                    FaultInjector::Point::CrashClaimHeld);
                miss.crashPostPut = injector->shouldFire(
                    FaultInjector::Point::CrashPostPut);
            }
            fill.push_back(std::move(miss));
            fill_wl.push_back(w);
            fill_row.push_back(row);
            injected_fails.push_back(fails);
        }
    }

    // Simulate one miss: bounded retry — a failing run (pre-drawn
    // injected fault or a genuine crash) is retried, then skipped; one
    // bad combination must not lose the whole sweep. The full run
    // result goes straight into the row's slot; the engine persists
    // its encoding.
    std::vector<std::uint32_t> retried(fill.size(), 0);
    auto simulate =
        [&](std::size_t i) -> std::optional<std::vector<double>> {
        const std::size_t w = fill_wl[i];
        const std::size_t row = fill_row[i];
        const std::string &key = fill[i].key;

        // Workers never touch the shared injector: the run-failure
        // schedule was pre-drawn above, and monitor-level points are
        // forked per row — deterministic in the row id, independent
        // of worker interleaving and of the batch around the sweep.
        const Runner *runner = &runner_;
        std::optional<Runner> task_runner;
        std::optional<FaultInjector> task_injector;
        if (injector != nullptr) {
            task_injector.emplace(injector->fork(row));
            task_injector->disarm(FaultInjector::Point::RunFail);
            RunOptions opts = runner_.options();
            opts.faultInjector = &*task_injector;
            task_runner.emplace(runner_.config(), opts);
            runner = &*task_runner;
        }

        for (std::uint32_t attempt = 0; attempt <= maxRetries_;
             ++attempt) {
            if (attempt > 0)
                ++retried[i];
            const std::string attempt_tag =
                " (attempt " + std::to_string(attempt + 1) + "/" +
                std::to_string(maxRetries_ + 1) + "): ";
            if (attempt < injected_fails[i]) {
                warn("Exhaustive: run failed for " + key + attempt_tag +
                     "[run-failed] Runner: injected run failure");
                continue;
            }
            try {
                tables[w].results[row] =
                    runner->runStatic(apps[w], combos[row]);
                return encodeComboRow(tables[w].results[row]);
            } catch (const FatalError &e) {
                warn("Exhaustive: run failed for " + key + attempt_tag +
                     e.what());
            }
        }
        return std::nullopt;
    };

    // Cross-process sharding: misses are leased at dispatch, so N
    // cooperating workers split a cold sweep instead of each
    // simulating all of it. Leases come from the elected same-host
    // coordinator of the shared store, or over TCP from the
    // ebm_coordinator at EBM_COORDINATOR=host:port. A warm sweep
    // never joins.
    const std::unique_ptr<LeaseProvider> lease =
        fill.empty() ? nullptr : makeLeaseProvider(cache_);
    const std::vector<FilledRow> filled = fillRows(
        cache_, {lease.get(), jobs(), 4u * std::size_t{n} + 1}, fill,
        simulate);

    // Merge per-row outcomes in row order: totals are independent of
    // the workers' completion order.
    for (std::size_t i = 0; i < fill.size(); ++i) {
        ComboTable &table = tables[fill_wl[i]];
        SweepStatus &sweep_status = statuses[fill_wl[i]];
        const std::size_t row = fill_row[i];
        sweep_status.retried += retried[i];
        switch (filled[i].source) {
          case RowSource::Simulated:
            ++sweep_status.simulated;
            break;
          case RowSource::Peer:
            table.results[row] =
                decodeComboRow(filled[i].values, combos[row], n);
            ++sweep_status.fromPeers;
            break;
          case RowSource::Skipped: {
            RunResult result;
            result.apps.resize(n);
            result.finalTlp = combos[row];
            table.results[row] = std::move(result);
            table.skipped[row] = 1;
            ++sweep_status.skipped;
            break;
          }
        }
    }

    for (std::size_t w = 0; w < wls.size(); ++w) {
        status_.add(statuses[w]);
        if (statuses[w].retried > 0 || statuses[w].skipped > 0) {
            warn("Exhaustive: " + wls[w].name + " " +
                 statuses[w].summaryLine());
        }
    }
    return tables;
}

double
Exhaustive::value(const ComboTable &table, const TlpCombo &combo,
                  OptTarget target, const std::vector<double> &alone_ipcs,
                  const std::vector<double> &eb_scale)
{
    const RunResult &r = table.at(combo);
    const std::size_t n = r.apps.size();

    std::vector<double> sds;
    if (target == OptTarget::SdWS || target == OptTarget::SdFI ||
        target == OptTarget::SdHS) {
        if (alone_ipcs.size() != n)
            fatal("Exhaustive: SD target needs alone IPCs");
        for (std::size_t a = 0; a < n; ++a)
            sds.push_back(slowdown(r.apps[a].ipc, alone_ipcs[a]));
    }

    switch (target) {
      case OptTarget::SdWS:
        return weightedSpeedup(sds);
      case OptTarget::SdFI:
        return fairnessIndex(sds);
      case OptTarget::SdHS:
        return harmonicSpeedup(sds);
      case OptTarget::EbWS:
        return ebWeightedSpeedup(r.ebs());
      case OptTarget::EbFI:
        return ebFairnessIndex(r.ebs(), eb_scale);
      case OptTarget::EbHS:
        return ebHarmonicSpeedup(r.ebs(), eb_scale);
      case OptTarget::SumIpc: {
        double sum = 0.0;
        for (const AppRunStats &a : r.apps)
            sum += a.ipc;
        return sum;
      }
    }
    panic("Exhaustive: unknown target");
}

TlpCombo
Exhaustive::argmax(const ComboTable &table, OptTarget target,
                   const std::vector<double> &alone_ipcs,
                   const std::vector<double> &eb_scale)
{
    if (table.combos.empty())
        fatal("Exhaustive: empty table");
    std::size_t best = table.combos.size();
    double best_value = -1e300;
    for (std::size_t i = 0; i < table.combos.size(); ++i) {
        // A combo whose run failed has a zeroed result: excluding it
        // keeps partial tables usable (no-silent-drops reporting is
        // the sweep's job).
        if (table.isSkipped(i))
            continue;
        const double v = value(table, table.combos[i], target,
                               alone_ipcs, eb_scale);
        if (!std::isfinite(v))
            continue;
        if (v > best_value) {
            best_value = v;
            best = i;
        }
    }
    if (best == table.combos.size())
        fatal("Exhaustive: every combination was skipped or scored "
              "non-finite; nothing to select");
    return table.combos[best];
}

} // namespace ebm
