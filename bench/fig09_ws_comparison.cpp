/**
 * @file
 * Figure 9: weighted speedup of ++DynCTA, Mod+Bypass, PBS-WS,
 * PBS-WS (Offline), BF-WS, and optWS on the 10 representative
 * workloads plus Gmean, normalized to ++bestTLP.
 */
#include <cstdio>

#include "scheme_eval.hpp"

int
run()
{
    ebm::Experiment exp(2);
    ebm::bench::runComparison(
        exp, ebm::bench::Report::WS,
        "Figure 9: Weighted Speedup (normalized to ++bestTLP)");
    std::printf(
        "\nPaper shape: PBS-WS well above ++bestTLP (1.0), above "
        "++DynCTA and Mod+Bypass, close to BF-WS and within a few "
        "percent of optWS.\n");
    return 0;
}

int
main()
{
    return ebm::runGuarded("fig09_ws_comparison", run);
}
