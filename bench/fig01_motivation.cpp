/**
 * @file
 * Figure 1: motivation. WS and FI of BFS_FFT under ++bestTLP,
 * ++maxTLP, optWS, and optFI (normalized to ++bestTLP), showing that
 * solo-optimal TLP choices are sub-optimal under co-location.
 */
#include <cstdio>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"

using namespace ebm;

int
run()
{
    Experiment exp(2);
    const Workload wl = makePair("BFS", "FFT");

    std::printf("Figure 1: WS/FI of %s under TLP policies "
                "(normalized to ++bestTLP)\n\n",
                wl.name.c_str());

    const ComboTable table = std::move(exp.fill({wl}).front());
    const std::vector<double> alone = exp.aloneIpcs(wl);

    const TlpCombo best = exp.bestTlpCombo(wl);
    const TlpCombo max_tlp = {GpuConfig::tlpLevels().back(),
                              GpuConfig::tlpLevels().back()};
    const TlpCombo opt_ws =
        Exhaustive::argmax(table, OptTarget::SdWS, alone);
    const TlpCombo opt_fi =
        Exhaustive::argmax(table, OptTarget::SdFI, alone);

    const double ws_base =
        Exhaustive::value(table, best, OptTarget::SdWS, alone);
    const double fi_base =
        Exhaustive::value(table, best, OptTarget::SdFI, alone);

    TextTable out({"Scheme", "TLP combo", "WS (norm)", "FI (norm)"});
    auto row = [&](const std::string &name, const TlpCombo &combo) {
        const double ws =
            Exhaustive::value(table, combo, OptTarget::SdWS, alone);
        const double fi =
            Exhaustive::value(table, combo, OptTarget::SdFI, alone);
        out.addRow({name,
                    "(" + std::to_string(combo[0]) + "," +
                        std::to_string(combo[1]) + ")",
                    TextTable::num(ws / ws_base),
                    TextTable::num(fi / fi_base)});
    };
    row("++bestTLP", best);
    row("++maxTLP", max_tlp);
    row("optWS", opt_ws);
    row("optFI", opt_fi);
    out.print();

    std::printf("\nPaper shape: optWS/optFI clearly above ++bestTLP; "
                "++maxTLP at or below it.\n");
    std::printf("\n%s\n", exp.status().summaryLine().c_str());
    std::printf("%s\n", exp.cache().persistSummaryLine().c_str());
    return 0;
}

int
main()
{
    return runGuarded("fig01_motivation", run);
}
