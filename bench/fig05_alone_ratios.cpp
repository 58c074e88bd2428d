/**
 * @file
 * Figure 5: IPC alone-ratio vs EB alone-ratio bias, max(m, 1/m), for
 * every two-application workload formed from the 16 evaluated apps.
 * The paper's argument for optimizing EB-based (rather than IPC-based)
 * sums: EB_AR is much less biased than IPC_AR on average.
 */
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "metrics/metrics.hpp"
#include "workload/app_catalog.hpp"

using namespace ebm;

int
main()
{
    Experiment exp(2);

    // The 16 apps spanned by the evaluated suite.
    std::set<std::string> app_set;
    for (const Workload &wl : fullSuite())
        app_set.insert(wl.appNames.begin(), wl.appNames.end());
    const std::vector<std::string> apps(app_set.begin(), app_set.end());

    std::printf("Figure 5: alone-ratio bias max(m, 1/m) across all "
                "%zu-app pairings\n\n",
                apps.size());

    std::vector<AppProfile> profiles;
    for (const std::string &name : apps)
        profiles.push_back(findApp(name));
    const std::vector<AppAloneProfile> alone =
        exp.profiles().profile(profiles);

    std::vector<double> ipc_ars, eb_ars;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        for (std::size_t j = i + 1; j < apps.size(); ++j) {
            const AppAloneProfile &pa = alone[i];
            const AppAloneProfile &pb = alone[j];
            ipc_ars.push_back(
                aloneRatioBias(pa.ipcAtBest, pb.ipcAtBest));
            eb_ars.push_back(aloneRatioBias(pa.ebAtBest, pb.ebAtBest));
        }
    }

    auto summarize = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        struct
        {
            double mean, median, p90, max;
        } s{};
        double sum = 0;
        for (double x : v)
            sum += x;
        s.mean = sum / static_cast<double>(v.size());
        s.median = v[v.size() / 2];
        s.p90 = v[static_cast<std::size_t>(0.9 * v.size())];
        s.max = v.back();
        return s;
    };
    const auto ipc = summarize(ipc_ars);
    const auto eb = summarize(eb_ars);

    TextTable out({"Metric", "mean", "median", "p90", "max"});
    out.addRow({"IPC_AR", TextTable::num(ipc.mean),
                TextTable::num(ipc.median), TextTable::num(ipc.p90),
                TextTable::num(ipc.max)});
    out.addRow({"EB_AR", TextTable::num(eb.mean),
                TextTable::num(eb.median), TextTable::num(eb.p90),
                TextTable::num(eb.max)});
    out.print();

    std::printf("\nPer-pair series (workload, IPC_AR, EB_AR):\n");
    std::size_t k = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        for (std::size_t j = i + 1; j < apps.size(); ++j, ++k) {
            std::printf("  %-10s %7.3f %7.3f\n",
                        (apps[i] + "_" + apps[j]).c_str(), ipc_ars[k],
                        eb_ars[k]);
        }
    }

    std::printf("\nPaper shape: EB_AR is on average much lower than "
                "IPC_AR, so EB-based sums are less biased toward one "
                "co-runner.\n");
    std::printf("%s\n", exp.status().summaryLine().c_str());
    return 0;
}
