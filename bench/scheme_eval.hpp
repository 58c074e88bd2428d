/**
 * @file
 * Shared evaluation loop for the scheme-comparison figures (9, 10 and
 * the Section VI-C HS study): runs every scheme on the representative
 * workloads and returns per-workload SD-based scores normalized to
 * ++bestTLP.
 */
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "core/dyncta.hpp"
#include "core/mod_bypass.hpp"
#include "core/pbs_policy.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "workload/app_catalog.hpp"
#include "workload/workload_suite.hpp"

namespace ebm::bench {

/** Which SD metric the figure reports. */
enum class Report { WS, FI, HS };

inline double
metricOf(Report report, const SdScores &s)
{
    switch (report) {
      case Report::WS:
        return s.ws;
      case Report::FI:
        return s.fi;
      case Report::HS:
        return s.hs;
    }
    return 0.0;
}

inline OptTarget
sdTarget(Report report)
{
    switch (report) {
      case Report::WS:
        return OptTarget::SdWS;
      case Report::FI:
        return OptTarget::SdFI;
      case Report::HS:
        return OptTarget::SdHS;
    }
    return OptTarget::SdWS;
}

inline OptTarget
ebTarget(Report report)
{
    switch (report) {
      case Report::WS:
        return OptTarget::EbWS;
      case Report::FI:
        return OptTarget::EbFI;
      case Report::HS:
        return OptTarget::EbHS;
    }
    return OptTarget::EbWS;
}

inline EbObjective
objectiveOf(Report report)
{
    switch (report) {
      case Report::WS:
        return EbObjective::WS;
      case Report::FI:
        return EbObjective::FI;
      case Report::HS:
        return EbObjective::HS;
    }
    return EbObjective::WS;
}

/**
 * Evaluate all schemes of one figure and print the normalized table.
 *
 * Schemes, as in the paper's Figs. 9/10: ++DynCTA, Mod+Bypass, PBS
 * (online), PBS (Offline), BF (EB brute force), and opt (SD brute
 * force); all normalized to ++bestTLP.
 */
inline void
runComparison(Experiment &exp, Report report, const std::string &title)
{
    const std::string suffix = report == Report::WS   ? "WS"
                               : report == Report::FI ? "FI"
                                                      : "HS";
    std::printf("%s\n\n", title.c_str());

    const std::vector<std::string> scheme_names = {
        "++DynCTA",          "Mod+Bypass",
        "PBS-" + suffix,     "PBS-" + suffix + " (Offline)",
        "BF-" + suffix,      "opt" + suffix};

    std::vector<std::string> headers = {"Workload"};
    headers.insert(headers.end(), scheme_names.begin(),
                   scheme_names.end());
    TextTable out(std::move(headers));

    std::map<std::string, std::vector<double>> norm_values;

    // Scaling for EB-based fairness/harmonic objectives: the
    // sampled-alone approximation (the paper's dynamic variant).
    const bool scaled = report != Report::WS;

    // Every alone profile and sweep the offline schemes score
    // against, in two fill passes.
    const std::vector<Workload> workloads = representativeWorkloads();
    const std::vector<ComboTable> tables = exp.fill(workloads);

    // The online schemes, three runs per workload, go to the store as
    // one batch: ++DynCTA, Mod+Bypass, then PBS (online). Ratio
    // objectives (FI/HS) average multiple windows per probe:
    // single-window EB ratios are too noisy to search on.
    std::vector<OnlineJob> batch;
    for (const Workload &wl : workloads) {
        const std::vector<AppProfile> apps = resolveApps(wl);
        PbsPolicy::Params params;
        params.objective = objectiveOf(report);
        params.scaling =
            scaled ? ScalingMode::SampledAlone : ScalingMode::None;
        params.settleWindows = 1;
        params.measureWindows = scaled ? 3 : 1;
        batch.push_back(
            {&exp.onlineRunner(), apps, std::make_unique<DynCta>()});
        batch.push_back(
            {&exp.onlineRunner(), apps, std::make_unique<ModBypass>()});
        batch.push_back({&exp.onlineRunner(), apps,
                         std::make_unique<PbsPolicy>(params)});
    }
    const std::vector<RunResult> online = exp.runOnline(batch);

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const Workload &wl = workloads[w];
        const std::vector<double> alone = exp.aloneIpcs(wl);
        const std::vector<double> alone_ebs = exp.aloneEbs(wl);
        const ComboTable &table = tables[w];

        // Baseline: ++bestTLP.
        const TlpCombo best = exp.bestTlpCombo(wl);
        const double base = metricOf(
            report, exp.score(wl, table.at(best)));

        // ++DynCTA, Mod+Bypass, PBS (online).
        std::vector<double> row_values;
        for (std::size_t k = 0; k < 3; ++k) {
            row_values.push_back(
                metricOf(report, exp.score(wl, online[3 * w + k])));
        }
        // PBS (Offline).
        {
            const TlpCombo combo = exp.pbsOffline(
                table, objectiveOf(report),
                scaled ? ScalingMode::UserGroup : ScalingMode::None,
                scaled ? alone_ebs : std::vector<double>{});
            row_values.push_back(metricOf(
                report, exp.score(wl, table.at(combo))));
        }
        // BF (EB-based brute force).
        {
            const TlpCombo combo = Exhaustive::argmax(
                table, ebTarget(report), {},
                scaled ? alone_ebs : std::vector<double>{});
            row_values.push_back(metricOf(
                report, exp.score(wl, table.at(combo))));
        }
        // opt (SD-based brute force).
        {
            const TlpCombo combo =
                Exhaustive::argmax(table, sdTarget(report), alone);
            row_values.push_back(metricOf(
                report, exp.score(wl, table.at(combo))));
        }

        std::vector<std::string> row = {wl.name};
        for (std::size_t s = 0; s < scheme_names.size(); ++s) {
            const double norm = row_values[s] / base;
            norm_values[scheme_names[s]].push_back(norm);
            row.push_back(TextTable::num(norm));
        }
        out.addRow(std::move(row));
    }

    std::vector<std::string> gmean_row = {"Gmean"};
    for (const std::string &name : scheme_names)
        gmean_row.push_back(TextTable::num(gmean(norm_values[name])));
    out.addRow(std::move(gmean_row));
    out.print();
    std::printf("\n%s [jobs=%u]\n", exp.status().summaryLine().c_str(),
                exp.jobs());
    std::printf("%s\n", exp.cache().persistSummaryLine().c_str());
}

} // namespace ebm::bench
