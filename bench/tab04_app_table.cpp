/**
 * @file
 * Table IV: per-application characteristics — IPC at bestTLP, EB at
 * bestTLP, and the G1..G4 group assignment by EB quartile. Our
 * absolute values differ from the paper (synthetic apps on a scaled
 * machine); the table records what EXPERIMENTS.md compares against.
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

    std::printf("Table IV: application characteristics (alone runs "
                "on the per-app core share)\n\n");

    exp.profiles().assignGroups(appCatalog());

    TextTable out({"App", "bestTLP", "IPC@bestTLP", "EB@bestTLP",
                   "r_m", "Group"});
    for (const AppProfile &app : appCatalog()) {
        const AppAloneProfile &prof = exp.profiles().profile(app);
        std::string group = "G";
        group += std::to_string(prof.group);
        out.addRow({app.name, std::to_string(prof.bestTlp),
                    TextTable::num(prof.ipcAtBest, 2),
                    TextTable::num(prof.ebAtBest),
                    TextTable::num(app.memFraction(), 2),
                    group});
    }
    out.print();

    std::printf("\nGroup mean alone-EB (the user-supplied scaling "
                "factors for PBS-FI/HS):\n");
    for (std::uint32_t g = 1; g <= 4; ++g) {
        // Any member app returns its group's mean.
        double mean = 0.0;
        for (const AppProfile &app : appCatalog()) {
            if (exp.profiles().profile(app).group == g) {
                mean = exp.profiles().groupScale(app.name);
                break;
            }
        }
        std::printf("  G%u: %.3f\n", g, mean);
    }

    std::printf("\nPaper shape: a wide spread of EB values from "
                "compute-bound (G1) to cache-amplified (G4) apps, "
                "with bestTLP varying across applications.\n");
    std::printf("%s\n", exp.status().summaryLine().c_str());
    return 0;
}
