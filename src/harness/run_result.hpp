/**
 * @file
 * The outcome of one measured simulation run, and the options that
 * shape a run. Every experiment in bench/ consumes these.
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "metrics/metrics.hpp"

namespace ebm {

class FaultInjector;

/** Timing knobs of one measured run. */
struct RunOptions
{
    Cycle warmupCycles = 5000;   ///< Caches warm, not measured.
    Cycle measureCycles = 30000; ///< Measurement span.
    Cycle windowCycles = 1500;   ///< Sampling window (policies).
    /** Synthetic kernel-relaunch period (0 = never). */
    Cycle relaunchInterval = 0;
    /**
     * Optional fault-injection harness threaded through the Runner
     * and EbMonitor (robustness tests only; null in production runs).
     * Not owned; must outlive every run that uses these options.
     */
    FaultInjector *faultInjector = nullptr;

    /** Collect *all* consistency problems. Empty = valid. */
    std::vector<Error>
    check() const
    {
        std::vector<Error> errors;
        const auto bad = [&errors](const std::string &msg) {
            errors.push_back({Errc::InvalidConfig, msg});
        };
        if (windowCycles == 0)
            bad("RunOptions: windowCycles must be > 0");
        if (measureCycles == 0)
            bad("RunOptions: measureCycles must be > 0");
        if (windowCycles > warmupCycles + measureCycles)
            bad("RunOptions: windowCycles exceeds the whole run "
                "(no sampling window would ever close)");
        return errors;
    }
};

/** Per-application and whole-run measurements. */
struct RunResult
{
    std::vector<AppRunStats> apps; ///< ipc/bw/l1Mr/l2Mr per app.
    double totalBw = 0.0;          ///< Sum of per-app attained BW.
    Cycle measuredCycles = 0;
    TlpCombo finalTlp;             ///< Combination in force at the end.
    std::uint32_t samplesTaken = 0;///< Search overhead (policies).
    /** TLP changes over time (paper Fig. 11): the policy's
     * TlpPolicy::timeline() at the end of the run. */
    std::vector<std::pair<Cycle, TlpCombo>> tlpTimeline;

    /** Per-app effective bandwidths. */
    std::vector<double>
    ebs() const
    {
        std::vector<double> v;
        v.reserve(apps.size());
        for (const AppRunStats &a : apps)
            v.push_back(a.eb());
        return v;
    }

    /** Per-app IPCs. */
    std::vector<double>
    ipcs() const
    {
        std::vector<double> v;
        v.reserve(apps.size());
        for (const AppRunStats &a : apps)
            v.push_back(a.ipc);
        return v;
    }
};

} // namespace ebm
