/**
 * @file
 * Section VI-C: harmonic weighted speedup comparison — PBS-HS and its
 * offline/brute-force/opt counterparts plus the DynCTA and Mod+Bypass
 * baselines, normalized to ++bestTLP.
 */
#include <cstdio>

#include "scheme_eval.hpp"

int
run()
{
    ebm::Experiment exp(2);
    ebm::bench::runComparison(
        exp, ebm::bench::Report::HS,
        "Section VI-C: Harmonic Weighted Speedup (normalized to "
        "++bestTLP)");
    std::printf(
        "\nPaper shape: PBS-HS balances throughput and fairness — "
        "above the local-heuristic baselines and near the optHS "
        "bound.\n");
    return 0;
}

int
main()
{
    return ebm::runGuarded("sec6c_hs_comparison", run);
}
