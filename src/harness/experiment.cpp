#include "harness/experiment.hpp"

#include <cmath>

#include "common/log.hpp"
#include "common/runtime_config.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {

GpuConfig
Experiment::standardConfig(std::uint32_t num_apps)
{
    // Defaults are the DESIGN.md scaled Table I machine; the core
    // count is trimmed to the nearest multiple of the app count so
    // the equal static partition is exact (e.g. 15 cores for 3 apps).
    GpuConfig cfg;
    cfg.numApps = num_apps;
    cfg.numCores -= cfg.numCores % std::max(1u, num_apps);
    return cfg;
}

RunOptions
Experiment::standardOptions()
{
    RunOptions opts;
    opts.warmupCycles = 5000;
    opts.measureCycles = 30000;
    opts.windowCycles = 1500;
    return opts;
}

RunOptions
Experiment::onlineOptions()
{
    RunOptions opts;
    opts.warmupCycles = 5000;
    opts.measureCycles = 200'000;
    opts.windowCycles = 1000;
    return opts;
}

Experiment::Experiment(std::uint32_t num_apps,
                       const std::string &cache_path)
    : cache_(cache_path.empty() ? DiskCache::defaultPath()
                                : cache_path),
      runner_(standardConfig(num_apps), standardOptions()),
      onlineRunner_(standardConfig(num_apps), onlineOptions()),
      profiles_(runner_, cache_),
      exhaustive_(runner_, cache_)
{
}

Experiment::~Experiment()
{
    // compact() folds in everything cooperating processes appended
    // and rewrites sorted under the store's lock: every process that
    // finishes a shared sweep leaves the same canonical bytes,
    // whichever one exits last.
    if (RuntimeConfig::get().cacheCompact)
        cache_.compact();
}

void
Experiment::setJobs(std::uint32_t jobs)
{
    exhaustive_.setJobs(jobs);
    profiles_.setJobs(jobs);
}

std::uint32_t
Experiment::jobs() const
{
    return exhaustive_.jobs();
}

std::vector<RunResult>
Experiment::runOnline(const std::vector<OnlineJob> &batch)
{
    return runOnlineJobs(cache_, jobs(), batch, online_);
}

SweepStatus
Experiment::status() const
{
    SweepStatus total = exhaustive_.status();
    total.add(profiles_.status());
    total.add(online_);
    return total;
}

std::vector<ComboTable>
Experiment::fill(const std::vector<Workload> &workloads)
{
    std::vector<AppProfile> apps;
    for (const Workload &wl : workloads) {
        for (AppProfile &app : resolveApps(wl))
            apps.push_back(std::move(app));
    }
    profiles_.profile(apps);
    return exhaustive_.sweep(workloads);
}

std::vector<double>
Experiment::aloneIpcs(const Workload &wl)
{
    std::vector<double> out;
    for (const AppAloneProfile &prof : profiles_.profile(resolveApps(wl)))
        out.push_back(prof.ipcAtBest);
    return out;
}

std::vector<double>
Experiment::aloneEbs(const Workload &wl)
{
    std::vector<double> out;
    for (const AppAloneProfile &prof : profiles_.profile(resolveApps(wl)))
        out.push_back(prof.ebAtBest);
    return out;
}

TlpCombo
Experiment::bestTlpCombo(const Workload &wl)
{
    TlpCombo combo;
    for (const AppAloneProfile &prof : profiles_.profile(resolveApps(wl)))
        combo.push_back(prof.bestTlp);
    return combo;
}

SdScores
Experiment::score(const Workload &wl, const RunResult &result)
{
    const std::vector<double> alone = aloneIpcs(wl);
    SdScores scores;
    for (std::size_t a = 0; a < result.apps.size(); ++a)
        scores.sds.push_back(slowdown(result.apps[a].ipc, alone[a]));
    scores.ws = weightedSpeedup(scores.sds);
    scores.fi = fairnessIndex(scores.sds);
    scores.hs = harmonicSpeedup(scores.sds);
    return scores;
}

TlpCombo
Experiment::pbsOffline(const ComboTable &table, EbObjective objective,
                       ScalingMode scaling,
                       const std::vector<double> &user_scale,
                       std::uint32_t *samples_out)
{
    const auto num_apps =
        static_cast<std::uint32_t>(table.combos.front().size());
    PbsSearch search(objective, num_apps, table.levels, scaling,
                     user_scale);
    while (!search.done()) {
        const auto combo = search.nextCombo();
        if (!combo)
            panic("pbsOffline: planner stuck");
        const RunResult &r = table.at(*combo);
        EbSample sample;
        sample.apps = r.apps;
        sample.totalBw = r.totalBw;
        sample.tlp = *combo;
        search.observe(sample);
    }
    if (samples_out != nullptr)
        *samples_out = search.samplesTaken();
    return search.best();
}

double
gmean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            fatal("gmean: non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace ebm
