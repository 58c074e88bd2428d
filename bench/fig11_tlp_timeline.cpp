/**
 * @file
 * Figure 11: TLP changes over time for BLK_BFS under PBS-WS and
 * PBS-FI. Shaded sampling periods appear here as the probe segments
 * before convergence; kernel relaunches restart the search mid-run.
 */
#include <cstdio>

#include "core/pbs_policy.hpp"
#include "harness/experiment.hpp"
#include "workload/workload_suite.hpp"

using namespace ebm;

namespace {

void
printTimeline(const char *label, const Workload &wl,
              EbObjective objective, Experiment &exp)
{
    PbsPolicy::Params params;
    params.objective = objective;
    if (objective != EbObjective::WS) {
        params.scaling = ScalingMode::SampledAlone;
        params.settleWindows = 1;
        params.measureWindows = 2;
    }
    PbsPolicy policy(params);

    // A longer run with a mid-run kernel relaunch shows both the
    // initial search and the restart dynamics.
    Runner runner(exp.runner().config(), [] {
        RunOptions opts = Experiment::standardOptions();
        opts.measureCycles = 60'000;
        opts.relaunchInterval = 35'000;
        return opts;
    }());
    const RunResult r = runner.run(resolveApps(wl), policy);

    std::printf("%s on %s (search samples: %u)\n", label,
                wl.name.c_str(), r.samplesTaken);
    std::printf("%-12s %-10s %-10s\n", "cycle",
                ("TLP-" + wl.appNames[0]).c_str(),
                ("TLP-" + wl.appNames[1]).c_str());
    for (const auto &[cycle, combo] : policy.timeline()) {
        std::printf("%-12llu %-10u %-10u\n",
                    static_cast<unsigned long long>(cycle), combo[0],
                    combo[1]);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    Experiment exp(2);
    const Workload wl = makePair("BLK", "BFS");

    std::printf("Figure 11: TLP over time for BLK_BFS\n\n");
    printTimeline("(a) PBS-WS", wl, EbObjective::WS, exp);
    printTimeline("(b) PBS-FI", wl, EbObjective::FI, exp);

    std::printf("Paper shape: a burst of probe combinations early in "
                "the run (the shaded sampling periods), a long hold "
                "at the chosen combination, and a re-search after the "
                "kernel relaunch.\n");
    return 0;
}
