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

std::vector<AppAloneProfile>
ProfileDb::profile(const std::vector<AppProfile> &apps)
{
    fill(apps);
    std::vector<AppAloneProfile> out;
    out.reserve(apps.size());
    for (const AppProfile &app : apps)
        out.push_back(profiles_.at(app.name));
    return out;
}

const AppAloneProfile &
ProfileDb::profile(const AppProfile &app)
{
    fill({app});
    return profiles_.at(app.name);
}

void
ProfileDb::fill(const std::vector<AppProfile> &apps)
{
    // An armed fault injector keeps the pass serial, unleased and in
    // (app, level) order — its query order is part of the documented
    // fault schedule and must not depend on which process wins a
    // lease or on row costs.
    const bool pinned = runner_.options().faultInjector != nullptr;

    // Serial pass in (app, level) order: cache probes (and their
    // warnings) happen in the same order at any job count; misses
    // become rows of the fill, committed into pre-assigned slots
    // below.
    struct Pending
    {
        const AppProfile *app;
        AppAloneProfile prof;
    };
    std::vector<Pending> pending;
    std::vector<FillRow> rows;
    // Per fill row: its pending app and ladder index.
    std::vector<std::pair<std::size_t, std::size_t>> slot;
    for (const AppProfile &app : apps) {
        const auto listed = [&app](const Pending &p) {
            return p.app->name == app.name;
        };
        if (profiles_.count(app.name) != 0 ||
            std::any_of(pending.begin(), pending.end(), listed))
            continue;

        AppAloneProfile prof;
        prof.name = app.name;
        prof.levels = GpuConfig::tlpLevels();
        prof.perLevel.resize(prof.levels.size());
        status_.combos += prof.levels.size();
        for (std::size_t i = 0; i < prof.levels.size(); ++i) {
            std::string key = runner_.aloneKey(app.name, prof.levels[i]);
            // A wrong-shape or non-finite entry is treated as a miss
            // (recompute), not a crash: the cache is an accelerator,
            // never a point of failure.
            if (const auto cached = cache_.getValidated(key, 4)) {
                prof.perLevel[i] = decodeStats(*cached);
                ++status_.fromCache;
                continue;
            }
            FillRow miss;
            miss.key = std::move(key);
            miss.sortKey = pinned ? 0 : tlpSortKey({prof.levels[i]});
            rows.push_back(std::move(miss));
            slot.emplace_back(pending.size(), i);
        }
        pending.push_back({&app, std::move(prof)});
    }

    // Alone runs have no skip path: a failed run throws out of the
    // fill.
    auto simulate =
        [&](std::size_t i) -> std::optional<std::vector<double>> {
        const Pending &p = pending[slot[i].first];
        const AppRunStats stats =
            runner_.runAlone(*p.app, p.prof.levels[slot[i].second])
                .apps.at(0);
        return std::vector<double>{stats.ipc, stats.bw, stats.l1Mr,
                                   stats.l2Mr};
    };
    // Cross-process sharding: misses are leased at dispatch like sweep
    // rows, from the store's same-host coordinator or EBM_COORDINATOR.
    // A warm profile never joins.
    std::unique_ptr<LeaseProvider> lease;
    if (!pinned && !rows.empty())
        lease = makeLeaseProvider(cache_);
    const std::vector<FilledRow> filled =
        fillRows(cache_, {lease.get(), pinned ? 1u : jobs(), 4}, rows,
                 simulate);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (filled[i].source == RowSource::Skipped)
            fatal("ProfileDb: " + rows[i].key +
                  " was marked skipped by a peer");
        if (filled[i].source == RowSource::Peer)
            ++status_.fromPeers;
        else
            ++status_.simulated;
        pending[slot[i].first].prof.perLevel[slot[i].second] =
            decodeStats(filled[i].values);
    }

    for (Pending &p : pending) {
        finalizeBest(p.prof);
        profiles_.emplace(p.prof.name, std::move(p.prof));
    }
}

std::vector<double>
ProfileDb::assignGroups(const std::vector<AppProfile> &apps)
{
    // Quartile split by alone EB at bestTLP (the paper's Table IV
    // groups applications G1..G4 by their individual EB values).
    fill(apps);
    std::vector<std::pair<double, std::string>> ebs;
    for (const AppProfile &app : apps)
        ebs.emplace_back(profiles_.at(app.name).ebAtBest, app.name);
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
