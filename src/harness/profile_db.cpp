#include "harness/profile_db.hpp"

#include <algorithm>
#include <optional>

#include "common/job_pool.hpp"
#include "common/log.hpp"
#include "harness/lease_provider.hpp"
#include "harness/row_fill.hpp"

namespace ebm {

ProfileDb::ProfileDb(const Runner &runner, DiskCache &cache)
    : runner_(runner), cache_(cache)
{
}

std::uint32_t
ProfileDb::jobs() const
{
    return jobs_ != 0 ? jobs_ : JobPool::defaultJobs();
}

namespace {

/** An alone level's store encoding (ipc, bw, l1Mr, l2Mr) as stats. */
AppRunStats
decodeStats(const std::vector<double> &v)
{
    AppRunStats stats;
    stats.ipc = v[0];
    stats.bw = v[1];
    stats.l1Mr = v[2];
    stats.l2Mr = v[3];
    return stats;
}

/** Fill bestTlp/ipcAtBest/ebAtBest from a fully populated ladder. */
void
finalizeBest(AppAloneProfile &prof)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < prof.perLevel.size(); ++i) {
        if (prof.perLevel[i].ipc > prof.perLevel[best].ipc)
            best = i;
    }
    prof.bestTlp = prof.levels[best];
    prof.ipcAtBest = prof.perLevel[best].ipc;
    prof.ebAtBest = prof.perLevel[best].eb();
}

} // namespace

std::optional<AppAloneProfile>
ProfileDb::profileCached(const AppProfile &app) const
{
    const auto it = profiles_.find(app.name);
    if (it != profiles_.end())
        return it->second;

    AppAloneProfile prof;
    prof.name = app.name;
    prof.levels = GpuConfig::tlpLevels();
    prof.perLevel.resize(prof.levels.size());
    for (std::size_t i = 0; i < prof.levels.size(); ++i) {
        const auto cached = cache_.getValidated(
            runner_.aloneKey(app.name, prof.levels[i]), 4);
        if (!cached)
            return std::nullopt;
        prof.perLevel[i] = decodeStats(*cached);
    }
    finalizeBest(prof);
    return prof;
}

const AppAloneProfile &
ProfileDb::profile(const AppProfile &app)
{
    auto it = profiles_.find(app.name);
    if (it != profiles_.end())
        return it->second;

    AppAloneProfile prof;
    prof.name = app.name;
    prof.levels = GpuConfig::tlpLevels();
    prof.perLevel.resize(prof.levels.size());

    // Cross-process sharding: levels are leased at dispatch like
    // sweep rows (EBM_SWEEP_SHARD for same-host leases,
    // EBM_COORDINATOR for TCP leases). An armed fault injector
    // keeps the pass serial, unsharded and in level order — its query
    // order is part of the documented fault schedule and must not
    // depend on which process wins a lease or on row costs.
    const bool pinned = runner_.options().faultInjector != nullptr;
    std::unique_ptr<LeaseProvider> lease;
    if (!pinned)
        lease = makeLeaseProvider(cache_);

    // Serial pass in level order: cache probes (and their warnings)
    // happen in the same order at any job count; misses become rows
    // of the fill, committed into pre-assigned level slots below.
    std::vector<FillRow> fill;
    std::vector<std::size_t> fill_level; // Ladder index per fill row.
    for (std::size_t i = 0; i < prof.levels.size(); ++i) {
        std::string key = runner_.aloneKey(app.name, prof.levels[i]);
        // A wrong-shape or non-finite entry is treated as a miss
        // (recompute), not a crash: the cache is an accelerator,
        // never a point of failure.
        if (const auto cached = cache_.getValidated(key, 4)) {
            prof.perLevel[i] = decodeStats(*cached);
            continue;
        }
        FillRow miss;
        miss.key = std::move(key);
        miss.sortKey = pinned ? 0 : tlpSortKey({prof.levels[i]});
        fill.push_back(std::move(miss));
        fill_level.push_back(i);
    }

    // Alone runs have no skip path: a failed run throws out of the
    // fill.
    auto simulate =
        [&](std::size_t i) -> std::optional<std::vector<double>> {
        const AppRunStats stats =
            runner_.runAlone(app, prof.levels[fill_level[i]]).apps.at(0);
        return std::vector<double>{stats.ipc, stats.bw, stats.l1Mr,
                                   stats.l2Mr};
    };
    const std::vector<FilledRow> filled =
        fillRows(cache_, {lease.get(), pinned ? 1u : jobs(), 4}, fill,
                 simulate);
    for (std::size_t i = 0; i < fill.size(); ++i) {
        if (filled[i].source == RowSource::Skipped)
            fatal("ProfileDb: " + fill[i].key +
                  " was marked skipped by a peer");
        prof.perLevel[fill_level[i]] = decodeStats(filled[i].values);
    }

    finalizeBest(prof);

    auto [ins, ok] = profiles_.emplace(app.name, std::move(prof));
    (void)ok;
    return ins->second;
}

std::vector<double>
ProfileDb::assignGroups(const std::vector<AppProfile> &apps)
{
    // Quartile split by alone EB at bestTLP (the paper's Table IV
    // groups applications G1..G4 by their individual EB values).
    std::vector<std::pair<double, std::string>> ebs;
    for (const AppProfile &app : apps)
        ebs.emplace_back(profile(app).ebAtBest, app.name);
    std::sort(ebs.begin(), ebs.end());

    groupMeans_.assign(5, 0.0);
    std::vector<std::uint32_t> counts(5, 0);
    const std::size_t n = ebs.size();
    for (std::size_t i = 0; i < n; ++i) {
        const auto group =
            static_cast<std::uint32_t>(1 + (i * 4) / std::max<std::size_t>(n, 1));
        const std::uint32_t g = std::min(group, 4u);
        profiles_[ebs[i].second].group = g;
        groupMeans_[g] += ebs[i].first;
        ++counts[g];
    }
    for (std::uint32_t g = 1; g <= 4; ++g) {
        if (counts[g] > 0)
            groupMeans_[g] /= counts[g];
    }
    return groupMeans_;
}

double
ProfileDb::groupScale(const std::string &app_name) const
{
    const auto it = profiles_.find(app_name);
    if (it == profiles_.end() || it->second.group == 0)
        fatal("ProfileDb: groupScale before assignGroups for " +
              app_name);
    return groupMeans_[it->second.group];
}

} // namespace ebm
