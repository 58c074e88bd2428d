#include "harness/online_runs.hpp"

#include <optional>

#include "common/fault_injector.hpp"
#include "common/log.hpp"
#include "harness/lease_provider.hpp"
#include "harness/row_fill.hpp"

namespace ebm {

RecordShape
onlineRecordShape(std::size_t num_apps)
{
    return {5 * num_apps + 4, num_apps + 1};
}

std::vector<double>
encodeOnlineRecord(const RunResult &result)
{
    std::vector<double> v;
    for (const AppRunStats &a : result.apps) {
        v.push_back(a.ipc);
        v.push_back(a.bw);
        v.push_back(a.l1Mr);
        v.push_back(a.l2Mr);
    }
    v.push_back(static_cast<double>(result.measuredCycles));
    v.push_back(result.totalBw);
    for (const std::uint32_t t : result.finalTlp)
        v.push_back(t);
    v.push_back(result.samplesTaken);
    v.push_back(static_cast<double>(result.tlpTimeline.size()));
    for (const auto &[cycle, combo] : result.tlpTimeline) {
        v.push_back(static_cast<double>(cycle));
        for (const std::uint32_t t : combo)
            v.push_back(t);
    }
    return v;
}

RunResult
decodeOnlineRecord(const std::vector<double> &values,
                   std::size_t num_apps)
{
    auto next = values.begin();
    auto take = [&next] { return *next++; };
    auto takeCombo = [&] {
        TlpCombo combo(num_apps);
        for (std::uint32_t &t : combo)
            t = static_cast<std::uint32_t>(take());
        return combo;
    };

    RunResult result;
    result.apps.resize(num_apps);
    for (AppRunStats &a : result.apps) {
        a.ipc = take();
        a.bw = take();
        a.l1Mr = take();
        a.l2Mr = take();
    }
    result.measuredCycles = static_cast<Cycle>(take());
    result.totalBw = take();
    result.finalTlp = takeCombo();
    result.samplesTaken = static_cast<std::uint32_t>(take());
    const auto entries = static_cast<std::size_t>(take());
    for (std::size_t e = 0; e < entries; ++e) {
        const auto cycle = static_cast<Cycle>(take());
        result.tlpTimeline.emplace_back(cycle, takeCombo());
    }
    return result;
}

std::vector<RunResult>
runOnlineJobs(DiskCache &cache, std::uint32_t jobs,
              const std::vector<OnlineJob> &batch, SweepStatus &status)
{
    std::vector<RunResult> results(batch.size());
    if (batch.empty())
        return results;
    const std::size_t n = batch.front().apps.size();
    const RecordShape shape = onlineRecordShape(n);

    // Serial pass in job order: probes, and the chaos crash-point
    // draws, consume ordered state, as a sweep's do.
    std::vector<FillRow> fill;
    std::vector<std::size_t> fill_job;
    for (std::size_t j = 0; j < batch.size(); ++j) {
        const OnlineJob &job = batch[j];
        if (job.apps.size() != n)
            fatal("runOnlineJobs: a batch mixes app counts");
        std::string key =
            job.runner->onlineKey(job.apps, *job.policy, job.coreShare);
        if (const auto cached = cache.getValidated(key, shape)) {
            results[j] = decodeOnlineRecord(*cached, n);
            ++status.fromCache;
            continue;
        }
        FillRow miss;
        miss.key = std::move(key);
        // A run's cost is its span: tens of thousands of cycles, so
        // online rows also sort above any sweep row's TLP key.
        const RunOptions &opts = job.runner->options();
        miss.sortKey = opts.warmupCycles + opts.measureCycles;
        if (FaultInjector *injector = opts.faultInjector) {
            miss.crashClaimHeld =
                injector->shouldFire(FaultInjector::Point::CrashClaimHeld);
            miss.crashPostPut =
                injector->shouldFire(FaultInjector::Point::CrashPostPut);
        }
        fill.push_back(std::move(miss));
        fill_job.push_back(j);
    }
    status.combos += batch.size();

    auto simulate =
        [&](std::size_t i) -> std::optional<std::vector<double>> {
        const OnlineJob &job = batch[fill_job[i]];
        // Workers never touch the shared injector: it is only queried
        // serially, above.
        const Runner *runner = job.runner;
        std::optional<Runner> fault_free;
        if (runner->options().faultInjector != nullptr) {
            RunOptions opts = runner->options();
            opts.faultInjector = nullptr;
            fault_free.emplace(runner->config(), opts);
            runner = &*fault_free;
        }
        return encodeOnlineRecord(
            runner->run(job.apps, *job.policy, job.coreShare));
    };

    // Misses are leased like sweep rows, so cooperating processes
    // split them; a warm batch never joins.
    const std::unique_ptr<LeaseProvider> lease =
        fill.empty() ? nullptr : makeLeaseProvider(cache);
    const std::vector<FilledRow> filled =
        fillRows(cache, {lease.get(), jobs, shape}, fill, simulate);
    for (std::size_t i = 0; i < fill.size(); ++i) {
        switch (filled[i].source) {
          case RowSource::Simulated:
            ++status.simulated;
            break;
          case RowSource::Peer:
            ++status.fromPeers;
            break;
          case RowSource::Skipped:
            fatal("runOnlineJobs: " + fill[i].key +
                  " was marked skipped by a peer");
        }
        results[fill_job[i]] = decodeOnlineRecord(filled[i].values, n);
    }
    return results;
}

} // namespace ebm
