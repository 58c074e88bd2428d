/**
 * @file
 * Figure 8 / Section V-E: the hardware organization's overheads —
 * per-unit storage, per-window communication over the crossbar, the
 * sampling-table footprint, and the runtime cost of PBS searching
 * (windows spent at probe combinations), measured on a live run.
 */
#include <cstdio>

#include "core/eb_monitor.hpp"
#include "core/pbs_policy.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "workload/workload_suite.hpp"

using namespace ebm;

int
main()
{
    Experiment exp(2);
    const GpuConfig &cfg = exp.runner().config();

    std::printf("Figure 8 / Section V-E: monitor hardware costs\n\n");
    const auto cost = EbMonitor::hardwareCost(2);
    TextTable hw({"Component", "Cost"});
    hw.addRow({"Per-core registers (L1 acc/miss)",
               std::to_string(cost.bitsPerCore) + " bits"});
    hw.addRow({"Per-partition registers (L2 acc/miss, BW, TLP)",
               std::to_string(cost.bitsPerPartition) + " bits"});
    hw.addRow({"Crossbar relay per sampling window",
               std::to_string(cost.relayBitsPerWindow) + " bits"});
    hw.addRow({"Sampling table",
               std::to_string(cost.samplingTableBytes) + " bytes"});
    hw.addRow({"Total cores / partitions",
               std::to_string(cfg.numCores) + " / " +
                   std::to_string(cfg.numPartitions)});
    hw.print();

    std::printf("\nRuntime search overhead (live PBS-WS runs):\n\n");
    TextTable rt({"Workload", "samples", "search windows",
                  "search cycles", "fraction of run"});
    for (const Workload &wl : representativeWorkloads()) {
        PbsPolicy::Params params;
        params.objective = EbObjective::WS;
        PbsPolicy policy(params);
        const RunResult r =
            exp.onlineRunner().run(resolveApps(wl), policy);
        const RunOptions &opts = exp.onlineRunner().options();
        const Cycle search_cycles =
            static_cast<Cycle>(r.samplesTaken) * opts.windowCycles;
        const Cycle total =
            opts.warmupCycles + opts.measureCycles;
        rt.addRow({wl.name, std::to_string(r.samplesTaken),
                   std::to_string(r.samplesTaken),
                   std::to_string(search_cycles),
                   TextTable::num(
                       static_cast<double>(search_cycles) /
                           static_cast<double>(total),
                       2)});
    }
    rt.print();

    std::printf("\nPaper shape: a few dozen bytes of state per unit, "
                "~hundred bits relayed per window, and a search that "
                "visits ~16 of 64 combinations before settling.\n");
    return 0;
}
