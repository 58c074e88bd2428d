/**
 * @file
 * `ebm_sweep_worker`: one worker of the distributed sweep fabric.
 * Connects to an ebm_coordinator (EBM_COORDINATOR or --coordinator),
 * runs the ordinary profile + exhaustive-sweep dispatch loop for one
 * workload pair, and leases each missing row over TCP — simulating
 * only the rows it wins and streaming their CRC-framed v3 records
 * back. The local --cache file is private scratch in this mode; the
 * coordinator's store is the one that matters.
 *
 * Without a coordinator the same binary is just a serial filler
 * (useful for producing the reference store the distributed runs are
 * byte-compared against).
 *
 * Usage: ebm_sweep_worker [--coordinator HOST:PORT] [--pair A B]
 *                         [--cache FILE] [--fast] [--compact]
 *
 *   --coordinator HOST:PORT  lease rows from here (or EBM_COORDINATOR)
 *   --pair A B     catalog abbreviations (default BFS FFT)
 *   --cache FILE   local store (default: DiskCache::defaultPath())
 *   --fast         tiny 4-core machine + short runs (CI / demos)
 *   --compact      compact the local store before exiting
 *
 * EBM_JOBS sets the sweep's worker threads.
 */
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/runtime_config.hpp"
#include "harness/exhaustive.hpp"
#include "harness/experiment.hpp"
#include "harness/profile_db.hpp"
#include "workload/workload_suite.hpp"

using namespace ebm;

namespace {

/** The tests' tiny machine: cold fills in seconds, not minutes
 * (fingerprint-separated from the standard machine's keys). */
GpuConfig
fastConfig()
{
    GpuConfig cfg;
    cfg.numCores = 4;
    cfg.numPartitions = 2;
    cfg.numApps = 2;
    cfg.maxWarpsPerCore = 16;
    cfg.schedulersPerCore = 2;
    cfg.l1 = {8 * 1024, 4, 128, 16, 4};
    cfg.l2Slice = {64 * 1024, 8, 128, 32, 4};
    cfg.banksPerChannel = 8;
    cfg.bankGroups = 4;
    cfg.frfcfsQueueDepth = 32;
    return cfg;
}

RunOptions
fastOptions()
{
    RunOptions opts;
    opts.warmupCycles = 1000;
    opts.measureCycles = 6000;
    opts.windowCycles = 500;
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    return runGuarded("ebm_sweep_worker", [&] {
        std::string coordinator;
        std::string cache_path;
        std::string app_a = "BFS";
        std::string app_b = "FFT";
        bool fast = false;
        bool compact_on_exit = false;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--coordinator" && i + 1 < argc) {
                coordinator = argv[++i];
            } else if (arg == "--pair" && i + 2 < argc) {
                app_a = argv[++i];
                app_b = argv[++i];
            } else if (arg == "--cache" && i + 1 < argc) {
                cache_path = argv[++i];
            } else if (arg == "--fast") {
                fast = true;
            } else if (arg == "--compact") {
                compact_on_exit = true;
            } else {
                fatal(Error{Errc::InvalidArgument,
                            "unknown argument '" + arg +
                                "' (see the file header for usage)"});
            }
        }

        // The dispatch gate reads RuntimeConfig::coordinator; the flag
        // is a spelling of EBM_COORDINATOR for this run.
        RuntimeConfig::Override lease_from([&](RuntimeConfig &c) {
            if (!coordinator.empty())
                c.coordinator = coordinator;
        });
        coordinator = RuntimeConfig::get().coordinator;

        if (cache_path.empty())
            cache_path = DiskCache::defaultPath();
        DiskCache cache(cache_path);

        GpuConfig cfg =
            fast ? fastConfig() : Experiment::standardConfig(2);
        cfg.numApps = 2;
        const RunOptions opts =
            fast ? fastOptions() : Experiment::standardOptions();
        Runner runner(cfg, opts);

        const Workload wl = makePair(app_a, app_b);
        inform("ebm_sweep_worker: filling " + wl.name +
               (!coordinator.empty() ? " via coordinator " + coordinator
                                     : std::string(" standalone")));

        ProfileDb profiles(runner, cache);
        Exhaustive exhaustive(runner, cache);
        profiles.profile(resolveApps(wl));
        const ComboTable table = exhaustive.sweep(wl);
        inform("ebm_sweep_worker: " + wl.name + " table has " +
               std::to_string(table.combos.size()) + " rows; " +
               exhaustive.status().summaryLine());

        cache.sync();
        if (compact_on_exit && !cache.compact())
            warn("ebm_sweep_worker: final compaction failed");
        return 0;
    });
}
