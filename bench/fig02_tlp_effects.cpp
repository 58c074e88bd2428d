/**
 * @file
 * Figure 2: the effect of TLP on IPC, BW, CMR, and EB for BFS running
 * alone, normalized to its bestTLP values. The key shape: IPC and EB
 * rise to a knee and then fall, while BW keeps rising and CMR grows
 * monotonically — EB tracks IPC, BW alone does not.
 */
#include <cstdio>

#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "workload/app_catalog.hpp"

using namespace ebm;

int
main()
{
    Experiment exp(2);
    const AppAloneProfile &prof =
        exp.profiles().profile(findApp("BFS"));

    std::printf("Figure 2: effect of TLP on BFS (normalized to "
                "bestTLP=%u)\n\n",
                prof.bestTlp);

    // Locate the bestTLP row for normalization.
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < prof.levels.size(); ++i) {
        if (prof.levels[i] == prof.bestTlp)
            best_idx = i;
    }
    const AppRunStats &base = prof.perLevel[best_idx];

    TextTable out({"TLP", "IPC", "BW", "CMR", "EB"});
    for (std::size_t i = 0; i < prof.levels.size(); ++i) {
        const AppRunStats &s = prof.perLevel[i];
        out.addRow({std::to_string(prof.levels[i]),
                    TextTable::num(s.ipc / base.ipc),
                    TextTable::num(s.bw / base.bw),
                    TextTable::num(s.cmr() / base.cmr()),
                    TextTable::num(s.eb() / base.eb())});
    }
    out.print();

    std::printf("\nPaper shape: IPC and EB peak at bestTLP and track "
                "each other; CMR rises with TLP and erodes the BW "
                "gains past the knee.\n");
    return 0;
}
