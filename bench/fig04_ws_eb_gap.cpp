/**
 * @file
 * Figure 4: for the 10 representative workloads, the per-app
 * slowdown breakdown (a) and effective-bandwidth breakdown (b) under
 * ++bestTLP vs optWS. Demonstrates Observation 1: the combination
 * with the highest EB-WS also has the highest WS.
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

    std::printf("Figure 4(a): slowdown breakdown, ++bestTLP vs "
                "optWS\n\n");
    TextTable sd_table({"Workload", "SD-1 (best)", "SD-2 (best)",
                        "WS (best)", "SD-1 (opt)", "SD-2 (opt)",
                        "WS (opt)"});
    TextTable eb_table({"Workload", "EB-1 (best)", "EB-2 (best)",
                        "EB-WS (best)", "EB-1 (opt)", "EB-2 (opt)",
                        "EB-WS (opt)"});

    const std::vector<Workload> workloads = representativeWorkloads();
    const std::vector<ComboTable> tables = exp.fill(workloads);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const Workload &wl = workloads[w];
        const ComboTable &table = tables[w];
        const std::vector<double> alone = exp.aloneIpcs(wl);
        const TlpCombo best = exp.bestTlpCombo(wl);
        const TlpCombo opt =
            Exhaustive::argmax(table, OptTarget::SdWS, alone);

        auto sds = [&](const TlpCombo &c) {
            const RunResult &r = table.at(c);
            return std::pair{slowdown(r.apps[0].ipc, alone[0]),
                             slowdown(r.apps[1].ipc, alone[1])};
        };
        const auto [b1, b2] = sds(best);
        const auto [o1, o2] = sds(opt);
        sd_table.addRow({wl.name, TextTable::num(b1),
                         TextTable::num(b2), TextTable::num(b1 + b2),
                         TextTable::num(o1), TextTable::num(o2),
                         TextTable::num(o1 + o2)});

        const auto ebs_best = table.at(best).ebs();
        const auto ebs_opt = table.at(opt).ebs();
        eb_table.addRow(
            {wl.name, TextTable::num(ebs_best[0]),
             TextTable::num(ebs_best[1]),
             TextTable::num(ebs_best[0] + ebs_best[1]),
             TextTable::num(ebs_opt[0]), TextTable::num(ebs_opt[1]),
             TextTable::num(ebs_opt[0] + ebs_opt[1])});
    }
    sd_table.print();
    std::printf("\nFigure 4(b): effective-bandwidth breakdown\n\n");
    eb_table.print();

    std::printf("\nPaper shape: optWS achieves both higher WS and "
                "higher EB-WS than ++bestTLP on (almost) every "
                "workload (Observation 1).\n");
    std::printf("\n%s\n", exp.status().summaryLine().c_str());
    return 0;
}

int
main()
{
    return runGuarded("fig04_ws_eb_gap", run);
}
