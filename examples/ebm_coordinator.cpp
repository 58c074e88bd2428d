/**
 * @file
 * `ebm_coordinator`: the lease/record server of the distributed sweep
 * fabric (DESIGN.md §8.6). Owns one v3 result store and hands out row
 * leases over TCP; ebm_sweep_worker processes stream CRC-framed v3
 * records back, which this daemon group-commits through its own
 * DiskCache writer — so the compacted store is byte-identical to a
 * serial fill no matter how many workers (or worker crashes)
 * contributed.
 *
 * Usage: ebm_coordinator [--cache FILE] [--host ADDR] [--port N]
 *                        [--stale-ms N] [--compact]
 *                        [--no-remote-shutdown]
 *
 *   --cache FILE   result store (default: DiskCache::defaultPath())
 *   --host ADDR    numeric bind address (default 127.0.0.1)
 *   --port N       TCP port in [0, 65535]; 0 = kernel-assigned, printed
 *                  at startup
 *   --stale-ms N   lease window in [1, 3600000] ms (default
 *                  EBM_CLAIM_STALE_MS). Every worker paces its
 *                  heartbeats from the window this daemon reports at
 *                  HELLO, whatever its own environment says
 *   --compact      compact the store on shutdown (canonical bytes)
 *   --no-remote-shutdown  ignore the SHUTDOWN verb (Ctrl-C only)
 *
 * Point workers at the printed address:
 *
 *   EBM_COORDINATOR=127.0.0.1:7733 ebm_sweep_worker --pair BFS FFT
 *
 * STATS replies end with the window in force and the resolved EBM_*
 * settings.
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/runtime_config.hpp"
#include "harness/coordinator.hpp"
#include "harness/disk_cache.hpp"
#include "harness/experiment.hpp"

using namespace ebm;

namespace {

/** @p text as an unsigned integer in [@p min, @p max]; anything else
 * (a sign, trailing garbage, out of range) is an InvalidArgument. */
std::uint64_t
flagValue(const std::string &flag, const char *text, std::uint64_t min,
          std::uint64_t max)
{
    std::uint64_t v = 0;
    if (!parseUint(text, v) || v < min || v > max) {
        fatal(Error{Errc::InvalidArgument,
                    flag + " wants an integer in [" +
                        std::to_string(min) + ", " +
                        std::to_string(max) + "], not '" + text + "'"});
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    return runGuarded("ebm_coordinator", [&] {
        Coordinator::Options opts;
        std::string cache_path;
        bool compact_on_exit = false;
        opts.allowRemoteShutdown = true;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--cache" && i + 1 < argc) {
                cache_path = argv[++i];
            } else if (arg == "--host" && i + 1 < argc) {
                opts.host = argv[++i];
            } else if (arg == "--port" && i + 1 < argc) {
                opts.port = static_cast<std::uint16_t>(
                    flagValue(arg, argv[++i], 0, 65535));
            } else if (arg == "--stale-ms" && i + 1 < argc) {
                opts.staleThreshold = std::chrono::milliseconds(
                    flagValue(arg, argv[++i], 1,
                              RuntimeConfig::kMaxWindowMs));
            } else if (arg == "--compact") {
                compact_on_exit = true;
            } else if (arg == "--no-remote-shutdown") {
                opts.allowRemoteShutdown = false;
            } else {
                fatal(Error{Errc::InvalidArgument,
                            "unknown argument '" + arg +
                                "' (see the file header for usage)"});
            }
        }

        if (cache_path.empty())
            cache_path = DiskCache::defaultPath();
        DiskCache cache(cache_path);
        inform("ebm_coordinator: store " + cache_path + " loaded (" +
               std::to_string(cache.size()) + " entries)");

        Coordinator coordinator(cache, opts);
        const Status started = coordinator.start();
        if (!started.ok())
            fatal(started.error());
        // Machine-greppable address line: scripts read this to build
        // the workers' EBM_COORDINATOR (the port may be ephemeral).
        std::printf("EBM_COORDINATOR=%s\n",
                    coordinator.address().c_str());
        std::fflush(stdout);
        inform("ebm_coordinator: serving on " + coordinator.address() +
               "; SHUTDOWN verb or SIGINT/SIGTERM stops it");

        static std::atomic<bool> interrupted{false};
        std::signal(SIGINT, [](int) { interrupted.store(true); });
        std::signal(SIGTERM, [](int) { interrupted.store(true); });
        while (!coordinator.shutdownRequested() &&
               !interrupted.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }

        inform("ebm_coordinator: shutting down");
        coordinator.stop();
        cache.sync();
        if (compact_on_exit && !cache.compact())
            warn("ebm_coordinator: final compaction failed");
        inform("ebm_coordinator: " +
               coordinator.stats().summaryLine());
        return 0;
    });
}
