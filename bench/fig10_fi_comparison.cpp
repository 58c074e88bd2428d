/**
 * @file
 * Figure 10: fairness index of ++DynCTA, Mod+Bypass, PBS-FI,
 * PBS-FI (Offline), BF-FI, and optFI on the 10 representative
 * workloads plus Gmean, normalized to ++bestTLP.
 */
#include <cstdio>

#include "scheme_eval.hpp"

int
run()
{
    ebm::Experiment exp(2);
    ebm::bench::runComparison(
        exp, ebm::bench::Report::FI,
        "Figure 10: Fairness Index (normalized to ++bestTLP)");
    std::printf(
        "\nPaper shape: PBS-FI clearly above ++bestTLP, ++DynCTA and "
        "Mod+Bypass; BF-FI/optFI bound it from above, with runtime "
        "adaptation sometimes letting PBS-FI beat its offline "
        "variant.\n");
    return 0;
}

int
main()
{
    return ebm::runGuarded("fig10_fi_comparison", run);
}
