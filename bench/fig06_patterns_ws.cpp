/**
 * @file
 * Figure 6: the patterns PBS-WS exploits, illustrated on BLK_TRD.
 * (a) EB-WS vs TLP-BLK for iso-TLP-TRD curves: the sharp drop
 *     (inflection) sits at the same TLP-BLK level on every curve.
 * (b) per-app EB breakdown along the TLP-BLK axis.
 * Also validates the pattern on every representative workload: the
 * critical app's inflection level must be (near-)invariant to the
 * co-runner's TLP.
 */
#include <cstdio>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "metrics/metrics.hpp"

using namespace ebm;

namespace {

/**
 * Knee along @p axis_app's axis with the co-runner pinned: the level
 * with the highest EB-WS (the pre-drop point PBS fixes the critical
 * app at).
 */
std::uint32_t
inflectionLevel(const ComboTable &table, std::uint32_t co_tlp,
                AppId axis_app)
{
    std::uint32_t knee = table.levels.front();
    double best = -1.0;
    for (std::uint32_t level : table.levels) {
        TlpCombo combo(2, co_tlp);
        combo[axis_app] = level;
        const double v = ebWeightedSpeedup(table.at(combo).ebs());
        if (v > best) {
            best = v;
            knee = level;
        }
    }
    return knee;
}

} // namespace

int
run()
{
    Experiment exp(2);
    // Every sweep the figure reads, in one fill pass; BLK_TRD is one
    // of them, so its own sweep below reads the store.
    const std::vector<Workload> workloads = representativeWorkloads();
    const std::vector<ComboTable> tables =
        exp.exhaustive().sweep(workloads);
    const Workload wl = makePair("BLK", "TRD");
    const ComboTable table = exp.exhaustive().sweep(wl);

    std::printf("Figure 6(a): EB-WS vs TLP-BLK (one column per "
                "iso-TLP-TRD curve)\n\n");
    std::printf("%-8s", "TLP-BLK");
    for (std::uint32_t t1 : table.levels)
        std::printf("  TRD=%-4u", t1);
    std::printf("\n");
    for (std::uint32_t t0 : table.levels) {
        std::printf("%-8u", t0);
        for (std::uint32_t t1 : table.levels) {
            std::printf("  %-8.3f",
                        ebWeightedSpeedup(table.at({t0, t1}).ebs()));
        }
        std::printf("\n");
    }

    std::printf("\nFigure 6(b): per-app EB along TLP-BLK "
                "(TLP-TRD=4)\n\n");
    std::printf("%-8s %-8s %-8s\n", "TLP-BLK", "EB-BLK", "EB-TRD");
    for (std::uint32_t t0 : table.levels) {
        const auto ebs = table.at({t0, 4}).ebs();
        std::printf("%-8u %-8.3f %-8.3f\n", t0, ebs[0], ebs[1]);
    }

    std::printf("\nPattern validation: critical-axis inflection level "
                "per iso-co-runner curve\n\n");
    std::printf("%-10s %-10s %s\n", "Workload", "critical",
                "knee at co-runner TLP = 2 / 4 / 8");
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const Workload &w = workloads[i];
        const ComboTable &t = tables[i];
        // Determine the critical app: larger EB-WS swing on its axis.
        double swing[2] = {0, 0};
        for (AppId a = 0; a < 2; ++a) {
            double lo = 1e300, hi = -1e300;
            for (std::uint32_t level : t.levels) {
                TlpCombo combo(2, 4u);
                combo[a] = level;
                const double v =
                    ebWeightedSpeedup(t.at(combo).ebs());
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            swing[a] = hi - lo;
        }
        const AppId crit = swing[0] >= swing[1] ? 0 : 1;
        std::printf("%-10s %-10s %u / %u / %u\n", w.name.c_str(),
                    w.appNames[crit].c_str(),
                    inflectionLevel(t, 2, crit),
                    inflectionLevel(t, 4, crit),
                    inflectionLevel(t, 8, crit));
    }

    std::printf("\nPaper shape: the knee of the critical app stays at "
                "the same (or adjacent) TLP level regardless of the "
                "co-runner's TLP — the 'pattern' PBS relies on.\n");
    std::printf("\n%s\n", exp.status().summaryLine().c_str());
    return 0;
}

int
main()
{
    return runGuarded("fig06_patterns_ws", run);
}
