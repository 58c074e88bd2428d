/**
 * @file
 * `ebm-advised`: the advisor serving daemon (ROADMAP item 1).
 *
 * Loads the v3 result store once at startup and answers co-scheduling
 * queries over a Unix-domain socket: a pair whose exhaustive sweep and
 * alone profiles are already in the store is answered from memory in
 * microseconds; a cold pair is filled asynchronously on the ordinary
 * sweep machinery (JobPool parallelism, durable persistence, row
 * leases) while the client polls a ticket or blocks under a deadline.
 *
 * Usage: ebm_advised [--socket PATH] [--cache FILE] [--fast]
 *                    [--no-remote-shutdown]
 *
 *   --socket PATH  listen here (default ./ebm_advised.sock)
 *   --cache FILE   result store (default: DiskCache::defaultPath(),
 *                  i.e. $EBM_CACHE_DIR/ebm_results.cache)
 *   --fast         tiny 4-core machine + short runs, so cold fills
 *                  finish in seconds (CI smoke / demos; keys are
 *                  fingerprint-separated from the standard machine)
 *   --no-remote-shutdown  ignore the SHUTDOWN verb (Ctrl-C only)
 *
 * EBM_JOBS sets the worker threads per miss fill. STATS replies end
 * with the resolved EBM_* settings.
 *
 * Query it with ebm_advise_client, e.g.:
 *
 *   ebm_advise_client ADVISE BFS FFT OBJ WS WAIT 60000
 *   ebm_advise_client STATS
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/log.hpp"
#include "harness/advisor_service.hpp"
#include "harness/experiment.hpp"

using namespace ebm;

namespace {

std::atomic<bool> g_interrupted{false};

void
onSignal(int)
{
    g_interrupted.store(true, std::memory_order_relaxed);
}

/** The tests' tiny machine: cold fills in seconds, not minutes. */
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
    return runGuarded("ebm_advised", [&] {
        std::string socket_path = "ebm_advised.sock";
        std::string cache_path;
        bool fast = false;
        bool remote_shutdown = true;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--socket" && i + 1 < argc) {
                socket_path = argv[++i];
            } else if (arg == "--cache" && i + 1 < argc) {
                cache_path = argv[++i];
            } else if (arg == "--fast") {
                fast = true;
            } else if (arg == "--no-remote-shutdown") {
                remote_shutdown = false;
            } else {
                fatal(Error{Errc::InvalidArgument,
                            "unknown argument '" + arg +
                                "' (see the file header for usage)"});
            }
        }

        if (cache_path.empty())
            cache_path = DiskCache::defaultPath();
        DiskCache cache(cache_path);
        inform("ebm_advised: store " + cache_path + " loaded (" +
               std::to_string(cache.size()) + " entries)");

        GpuConfig cfg =
            fast ? fastConfig() : Experiment::standardConfig(2);
        cfg.numApps = 2;
        const RunOptions opts =
            fast ? fastOptions() : Experiment::standardOptions();
        Runner runner(cfg, opts);
        AdvisorService::Options svc_opts{};
        AdvisorService service(runner, cache, svc_opts);

        AdvisorServer::Options srv_opts;
        srv_opts.socketPath = socket_path;
        srv_opts.allowRemoteShutdown = remote_shutdown;
        AdvisorServer server(service, srv_opts);
        const Status started = server.start();
        if (!started.ok())
            fatal(started.error());
        inform("ebm_advised: serving on " + socket_path +
               (fast ? " (fast machine)" : "") +
               "; SHUTDOWN verb or SIGINT/SIGTERM stops it");

        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        while (!server.shutdownRequested() &&
               !g_interrupted.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }

        inform("ebm_advised: shutting down");
        server.stop();
        const auto s = service.stats();
        inform("ebm_advised: served " + std::to_string(s.requests) +
               " queries (" + std::to_string(s.hits) + " hits, " +
               std::to_string(s.misses) + " misses, " +
               std::to_string(s.fillsCompleted) + " fills)");
        return 0;
    });
}
