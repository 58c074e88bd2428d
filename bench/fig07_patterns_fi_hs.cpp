/**
 * @file
 * Figure 7: the PBS-FI and PBS-HS views of BLK_TRD.
 * (a/b) EB-difference (scaled) along each TLP axis — PBS-FI hunts the
 *       zero crossing of the scaled difference.
 * (c/d) EB-HS along each TLP axis — PBS-HS hunts the pre-drop knee.
 * Printed with exact (alone-profile) scaling and with group scaling to
 * show why approximate scaling can shift the chosen combination.
 */
#include <cmath>
#include <cstdio>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "metrics/metrics.hpp"
#include "workload/app_catalog.hpp"

using namespace ebm;

int
run()
{
    Experiment exp(2);
    const Workload wl = makePair("BLK", "TRD");
    const ComboTable table = exp.exhaustive().sweep(wl);

    // Exact scaling: alone EB at bestTLP; group scaling: the group
    // mean (Table IV's user-supplied option).
    const std::vector<double> exact = exp.aloneEbs(wl);
    exp.profiles().assignGroups(appCatalog());
    const std::vector<double> group = {
        exp.profiles().groupScale("BLK"),
        exp.profiles().groupScale("TRD")};

    auto diff = [](const std::vector<double> &ebs,
                   const std::vector<double> &scale) {
        return ebs[0] / scale[0] - ebs[1] / scale[1];
    };

    std::printf("Figure 7(a): scaled EB-difference vs TLP-BLK "
                "(iso-TLP-TRD curves, exact scaling)\n\n");
    std::printf("%-8s", "TLP-BLK");
    for (std::uint32_t t1 : table.levels)
        std::printf("  TRD=%-5u", t1);
    std::printf("\n");
    for (std::uint32_t t0 : table.levels) {
        std::printf("%-8u", t0);
        for (std::uint32_t t1 : table.levels) {
            std::printf("  %+-8.3f",
                        diff(table.at({t0, t1}).ebs(), exact));
        }
        std::printf("\n");
    }

    std::printf("\nFigure 7(b): same data along TLP-TRD "
                "(TLP-BLK fixed), exact vs group scaling\n\n");
    std::printf("%-8s %-12s %-12s\n", "TLP-TRD", "diff(exact)",
                "diff(group)");
    for (std::uint32_t t1 : table.levels) {
        const auto ebs = table.at({2, t1}).ebs();
        std::printf("%-8u %+-12.3f %+-12.3f\n", t1, diff(ebs, exact),
                    diff(ebs, group));
    }

    std::printf("\nFigure 7(c): EB-HS vs TLP-BLK (iso-TLP-TRD "
                "curves, exact scaling)\n\n");
    std::printf("%-8s", "TLP-BLK");
    for (std::uint32_t t1 : table.levels)
        std::printf("  TRD=%-4u", t1);
    std::printf("\n");
    for (std::uint32_t t0 : table.levels) {
        std::printf("%-8u", t0);
        for (std::uint32_t t1 : table.levels) {
            std::printf("  %-8.3f",
                        ebHarmonicSpeedup(table.at({t0, t1}).ebs(),
                                          exact));
        }
        std::printf("\n");
    }

    std::printf("\nFigure 7(d): EB-HS along TLP-TRD (TLP-BLK "
                "fixed at its knee)\n\n");
    std::printf("%-8s %-8s\n", "TLP-TRD", "EB-HS");
    for (std::uint32_t t1 : table.levels) {
        std::printf("%-8u %-8.3f\n", t1,
                    ebHarmonicSpeedup(table.at({2, t1}).ebs(), exact));
    }

    // Chosen combos under the three searches.
    std::uint32_t samples = 0;
    const TlpCombo pbs_fi_exact = exp.pbsOffline(
        table, EbObjective::FI, ScalingMode::UserGroup, exact,
        &samples);
    const TlpCombo pbs_fi_group = exp.pbsOffline(
        table, EbObjective::FI, ScalingMode::UserGroup, group,
        &samples);
    const TlpCombo pbs_hs_exact = exp.pbsOffline(
        table, EbObjective::HS, ScalingMode::UserGroup, exact,
        &samples);
    const std::vector<double> alone = exp.aloneIpcs(wl);
    const TlpCombo opt_fi =
        Exhaustive::argmax(table, OptTarget::SdFI, alone);
    const TlpCombo opt_hs =
        Exhaustive::argmax(table, OptTarget::SdHS, alone);

    std::printf("\nChosen combinations:\n");
    std::printf("  PBS-FI (exact scaling): (%u,%u)   optFI: (%u,%u)\n",
                pbs_fi_exact[0], pbs_fi_exact[1], opt_fi[0],
                opt_fi[1]);
    std::printf("  PBS-FI (group scaling): (%u,%u)\n",
                pbs_fi_group[0], pbs_fi_group[1]);
    std::printf("  PBS-HS (exact scaling): (%u,%u)   optHS: (%u,%u)\n",
                pbs_hs_exact[0], pbs_hs_exact[1], opt_hs[0],
                opt_hs[1]);

    std::printf("\nPaper shape: the FI search stops where the scaled "
                "EB-difference is nearest zero; exact scaling lands "
                "closer to optFI than approximate scaling.\n");
    std::printf("\n%s\n",
                exp.exhaustive().status().summaryLine().c_str());
    return 0;
}

int
main()
{
    return runGuarded("fig07_patterns_fi_hs", run);
}
