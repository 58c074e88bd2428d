/**
 * @file
 * Figure 3: effective bandwidth at different levels of the memory
 * hierarchy. EB at DRAM is the attained BW; EB observed by the L2 is
 * BW/L2MR; EB observed by the core is BW/CMR. A cache-insensitive app
 * (BLK) sees the same value at every level; a cache-sensitive app
 * (BFS) sees growing amplification up the hierarchy.
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

    std::printf("Figure 3: EB at hierarchy levels (apps alone at "
                "bestTLP)\n\n");

    TextTable out({"App", "bestTLP", "A: BW (DRAM)", "B: BW/L2MR (L2)",
                   "C: BW/CMR (core)", "amplification C/A"});
    for (const char *name : {"BLK", "BFS", "FFT", "JPEG"}) {
        const AppAloneProfile &prof =
            exp.profiles().profile(findApp(name));
        std::size_t best_idx = 0;
        for (std::size_t i = 0; i < prof.levels.size(); ++i) {
            if (prof.levels[i] == prof.bestTlp)
                best_idx = i;
        }
        const AppRunStats &s = prof.perLevel[best_idx];
        out.addRow({name, std::to_string(prof.bestTlp),
                    TextTable::num(s.bw), TextTable::num(s.ebAtL2()),
                    TextTable::num(s.eb()),
                    TextTable::num(s.eb() / s.bw, 2)});
    }
    out.print();

    std::printf("\nPaper shape: cache-insensitive BLK has C == A "
                "(CMR == 1); cache-sensitive apps amplify DRAM "
                "bandwidth through the caches (C > B > A).\n");
    return 0;
}
