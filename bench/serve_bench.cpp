/**
 * @file
 * Serving-path benchmark for the advisor daemon: a synthetic traffic
 * replay of thousands of mixed queries (warm ADVISE in both argument
 * orders, PAIR rankings, STATS, PING, POLL, plus one deliberately
 * cold pair hammered concurrently to exercise single-flight miss
 * dispatch) against a live AdvisorServer over its Unix socket.
 *
 * Reports client-observed round-trip percentiles (p50/p99) split into
 * warm-hit and overall, total QPS, and the daemon's own STATS line,
 * then writes the numbers as BENCH_serve.json-shaped JSON: to FILE
 * with --out, otherwise to stdout after the summary lines. The
 * acceptance bar: warm-hit p99 < 1 ms at thousands of queries.
 *
 * Usage: serve_bench [--queries N] [--threads T] [--out FILE]
 *        (defaults: 2000 queries, 4 client threads, JSON to stdout;
 *        EBM_JOBS sets the fill's worker threads)
 *
 * Refresh the checked-in reference with
 *   ./build/bench/serve_bench --out BENCH_serve.json
 *
 * Not a paper figure; the serving daemon is infrastructure on top of
 * the reproduced results, not part of the reproduction itself.
 */
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/runtime_config.hpp"
#include "harness/advisor_service.hpp"
#include "harness/exhaustive.hpp"
#include "harness/profile_db.hpp"
#include "harness/runner.hpp"
#include "workload/app_catalog.hpp"
#include "workload/workload_suite.hpp"

namespace {

using namespace ebm;
using Clock = std::chrono::steady_clock;

/** The fast-test machine shape (bench/sweep_end_to_end.cpp). */
GpuConfig
benchConfig()
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
benchOptions()
{
    RunOptions opts;
    opts.warmupCycles = 1000;
    opts.measureCycles = 6000;
    opts.windowCycles = 500;
    return opts;
}

/** Reduced ladder: 16 combos/pair keeps the prefill to seconds. */
const std::vector<std::uint32_t> kLadder = {1, 2, 4, 8};

double
percentileUs(std::vector<double> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    return samples[idx];
}

/** One replay client: its own connection, its own latency log. */
struct ClientLog
{
    std::vector<double> warmUs; ///< Warm ADVISE round trips.
    std::vector<double> allUs;  ///< Every round trip.
    std::uint64_t errors = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    return runGuarded("serve_bench", [&] {
        std::size_t total_queries = 2000;
        unsigned threads = 4;
        std::string out_path; // Empty = stdout.
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            std::uint64_t v = 0;
            if (arg == "--queries" && i + 1 < argc &&
                parseUint(argv[i + 1], v) && v > 0) {
                total_queries = static_cast<std::size_t>(v);
                ++i;
            } else if (arg == "--threads" && i + 1 < argc &&
                       parseUint(argv[i + 1], v) && v > 0 &&
                       v <= 64) {
                threads = static_cast<unsigned>(v);
                ++i;
            } else if (arg == "--out" && i + 1 < argc) {
                out_path = argv[++i];
            } else {
                fatal(Error{Errc::InvalidArgument,
                            "unknown argument '" + arg + "'"});
            }
        }

        char dir_template[] = "/tmp/ebm_serve_bench.XXXXXX";
        const char *dir = ::mkdtemp(dir_template);
        if (dir == nullptr) {
            fatal(Error{Errc::CacheIo,
                        "mkdtemp failed for the bench sandbox"});
        }
        const std::string cache_path = std::string(dir) + "/store";
        const std::string socket_path = std::string(dir) + "/sock";

        // --- Prefill: warm pairs land in the store before serving ---
        const std::vector<std::string> warm_apps = {"BFS", "FFT", "BLK",
                                                    "TRD"};
        const GpuConfig cfg = benchConfig();
        const RunOptions opts = benchOptions();
        Runner runner(cfg, opts);
        std::vector<std::string> warm_pairs;
        {
            DiskCache prefill_cache(cache_path);
            ProfileDb profiles(runner, prefill_cache);
            Exhaustive exhaustive(runner, prefill_cache);
            const auto t0 = Clock::now();
            for (const std::string &name : warm_apps)
                profiles.profile(findApp(name));
            for (std::size_t i = 0; i < warm_apps.size(); ++i) {
                for (std::size_t j = i + 1; j < warm_apps.size();
                     ++j) {
                    // The daemon canonicalizes pairs by sorting the
                    // names; prefill under the same keys or a "warm"
                    // pair is cold at serve time.
                    std::string lo = warm_apps[i];
                    std::string hi = warm_apps[j];
                    if (hi < lo)
                        std::swap(lo, hi);
                    const Workload wl = makePair(lo, hi);
                    exhaustive.sweep(wl, kLadder);
                    warm_pairs.push_back(wl.name);
                }
            }
            const std::chrono::duration<double> dt =
                Clock::now() - t0;
            std::printf("prefill: %zu pairs in %.1f s (%s)\n",
                        warm_pairs.size(), dt.count(),
                        exhaustive.status().summaryLine().c_str());
        }

        // --- Serve: fresh cache instance, as a restarted daemon ---
        DiskCache cache(cache_path);
        AdvisorService::Options svc_opts{};
        svc_opts.levels = kLadder;
        AdvisorService service(runner, cache, svc_opts);
        AdvisorServer::Options srv_opts;
        srv_opts.socketPath = socket_path;
        AdvisorServer server(service, srv_opts);
        const Status started = server.start();
        if (!started.ok())
            fatal(started.error());

        // --- Replay: mixed query schedule, one connection/thread ---
        const std::size_t per_thread = total_queries / threads;
        std::vector<ClientLog> logs(threads);
        std::vector<std::thread> clients;
        const auto t_replay = Clock::now();
        for (unsigned t = 0; t < threads; ++t) {
            clients.emplace_back([&, t] {
                ClientLog &log = logs[t];
                auto conn = netConnectUnix(socket_path);
                if (!conn.ok()) {
                    ++log.errors;
                    return;
                }
                const int fd = conn.value().get();
                servefmt::FrameReader reader;
                std::string reply;
                const auto roundtrip =
                    [&](const std::string &request) -> bool {
                    const auto q0 = Clock::now();
                    if (!servefmt::sendFrame(fd, request) ||
                        !servefmt::recvFrame(fd, reader, reply)) {
                        ++log.errors;
                        return false;
                    }
                    const std::chrono::duration<double, std::micro>
                        dq = Clock::now() - q0;
                    log.allUs.push_back(dq.count());
                    return true;
                };
                for (std::size_t q = 0; q < per_thread; ++q) {
                    const std::size_t kind = q % 10;
                    const std::string &pair =
                        warm_pairs[(q * threads + t) %
                                   warm_pairs.size()];
                    const std::size_t us = pair.find('_');
                    const std::string a = pair.substr(0, us);
                    const std::string b = pair.substr(us + 1);
                    bool warm_advise = false;
                    std::string request;
                    switch (kind) {
                      case 7:
                        request = "STATS";
                        break;
                      case 8:
                        request = "PING";
                        break;
                      case 9:
                        request = "PAIR " + warm_apps[0] + " " +
                                  warm_apps[1] + " " + warm_apps[2];
                        break;
                      default:
                        // Both argument orders hit one canonical key.
                        request = (q % 2 == 0)
                                      ? "ADVISE " + a + " " + b
                                      : "ADVISE " + b + " " + a;
                        warm_advise = true;
                        break;
                    }
                    if (!roundtrip(request))
                        return;
                    if (warm_advise) {
                        if (reply.rfind("OK", 0) != 0)
                            ++log.errors;
                        else
                            log.warmUs.push_back(log.allUs.back());
                    }
                }
            });
        }
        for (std::thread &c : clients)
            c.join();
        const std::chrono::duration<double> replay_s =
            Clock::now() - t_replay;

        // --- Cold pair: every thread hammers it; one fill expected ---
        const std::string cold_req = "ADVISE JPEG LUD WAIT 0";
        std::atomic<std::uint64_t> cold_pending{0};
        std::vector<std::thread> cold_clients;
        for (unsigned t = 0; t < threads; ++t) {
            cold_clients.emplace_back([&] {
                auto conn = netConnectUnix(socket_path);
                if (!conn.ok())
                    return;
                servefmt::FrameReader reader;
                std::string reply;
                if (servefmt::sendFrame(conn.value().get(),
                                        cold_req) &&
                    servefmt::recvFrame(conn.value().get(), reader,
                                        reply) &&
                    reply.rfind("PENDING", 0) == 0)
                    cold_pending.fetch_add(1);
            });
        }
        for (std::thread &c : cold_clients)
            c.join();
        service.drainFills();

        // --- Warm-checkpoint fill A/B: one cold what-if query with
        // the warm-state fork on, one with it off. Each fill sweeps
        // its own fresh shape, so the fork's win is intra-fill: the
        // warmup prefix is simulated once and every combination forks
        // from the capture instead of re-running it. Timed via a
        // blocking ADVISE so the round trip spans the whole fill. ---
        const auto timedColdFill = [&](const std::string &a,
                                       const std::string &b) {
            auto conn = netConnectUnix(socket_path);
            if (!conn.ok())
                return -1.0;
            servefmt::FrameReader reader;
            std::string reply;
            const std::string req =
                "ADVISE " + a + " " + b + " WAIT 590000";
            const auto q0 = Clock::now();
            if (!servefmt::sendFrame(conn.value().get(), req) ||
                !servefmt::recvFrame(conn.value().get(), reader,
                                     reply) ||
                reply.rfind("OK", 0) != 0)
                return -1.0;
            const std::chrono::duration<double> dq =
                Clock::now() - q0;
            return dq.count();
        };
        const auto timedFillWithSnapshots = [&](bool on,
                                                const std::string &a,
                                                const std::string &b) {
            RuntimeConfig::Override snapshots(
                [on](RuntimeConfig &c) { c.snapshot = on; });
            return timedColdFill(a, b);
        };
        const double fill_warm_s = timedFillWithSnapshots(true, "SRAD", "BP");
        const double fill_cold_s = timedFillWithSnapshots(false, "LPS", "HS");

        // --- Daemon-side stats + aggregation ---
        const AdvisorService::Stats s = service.stats();
        server.stop();

        std::vector<double> warm_us, all_us;
        std::uint64_t errors = 0;
        for (const ClientLog &log : logs) {
            warm_us.insert(warm_us.end(), log.warmUs.begin(),
                           log.warmUs.end());
            all_us.insert(all_us.end(), log.allUs.begin(),
                          log.allUs.end());
            errors += log.errors;
        }
        const double qps =
            replay_s.count() > 0
                ? static_cast<double>(all_us.size()) /
                      replay_s.count()
                : 0.0;
        const double warm_p50 = percentileUs(warm_us, 0.50);
        const double warm_p99 = percentileUs(warm_us, 0.99);
        const double all_p50 = percentileUs(all_us, 0.50);
        const double all_p99 = percentileUs(all_us, 0.99);

        std::printf(
            "replay: %zu queries, %u threads, %.2f s -> %.0f QPS\n"
            "latency (client RTT): warm-hit p50=%.1f us p99=%.1f us; "
            "all p50=%.1f us p99=%.1f us; errors=%llu\n"
            "cold single-flight: %llu PENDING replies, "
            "fills dispatched=%llu completed=%llu\n"
            "daemon: requests=%llu hits=%llu misses=%llu "
            "joined=%llu p99=%.1f us\n",
            all_us.size(), threads, replay_s.count(), qps, warm_p50,
            warm_p99, all_p50, all_p99,
            static_cast<unsigned long long>(errors),
            static_cast<unsigned long long>(cold_pending.load()),
            static_cast<unsigned long long>(s.fillsDispatched),
            static_cast<unsigned long long>(s.fillsCompleted),
            static_cast<unsigned long long>(s.requests),
            static_cast<unsigned long long>(s.hits),
            static_cast<unsigned long long>(s.misses),
            static_cast<unsigned long long>(s.joined), s.p99us);

        std::ofstream file;
        if (!out_path.empty())
            file.open(out_path);
        std::ostream &out = out_path.empty() ? std::cout : file;
        out << "{\n"
            << "  \"description\": \"Advisor daemon traffic replay "
               "(bench/serve_bench.cpp): mixed ADVISE/PAIR/STATS/PING "
               "queries from concurrent clients over the Unix socket "
               "against a prefilled store, plus one cold pair "
               "hammered by every client to exercise single-flight "
               "miss dispatch. Latencies are client-observed round "
               "trips.\",\n"
            << "  \"command\": \"./build/bench/serve_bench --queries "
            << total_queries << " --threads " << threads << "\",\n"
            << "  \"queries\": " << all_us.size() << ",\n"
            << "  \"threads\": " << threads << ",\n"
            << "  \"replay_wall_s\": " << replay_s.count() << ",\n"
            << "  \"qps\": " << qps << ",\n"
            << "  \"warm_hit_p50_us\": " << warm_p50 << ",\n"
            << "  \"warm_hit_p99_us\": " << warm_p99 << ",\n"
            << "  \"all_p50_us\": " << all_p50 << ",\n"
            << "  \"all_p99_us\": " << all_p99 << ",\n"
            << "  \"client_errors\": " << errors << ",\n"
            << "  \"cold_single_flight\": {\n"
            << "    \"pending_replies\": " << cold_pending.load()
            << ",\n"
            << "    \"fills_dispatched\": " << s.fillsDispatched
            << ",\n"
            << "    \"fills_completed\": " << s.fillsCompleted << "\n"
            << "  },\n"
            << "  \"cold_query_fill\": {\n"
            << "    \"description\": \"blocking cold ADVISE round "
               "trip spanning the whole fill: warm-checkpoint "
               "forking on (SRAD_BP) vs off / cold boot (LPS_HS)\",\n"
            << "    \"warm_checkpoint_s\": " << fill_warm_s << ",\n"
            << "    \"cold_boot_s\": " << fill_cold_s << ",\n"
            << "    \"snapshot_hits\": " << s.snapshotHits << ",\n"
            << "    \"snapshot_misses\": " << s.snapshotMisses << "\n"
            << "  },\n"
            << "  \"daemon_stats\": { \"requests\": " << s.requests
            << ", \"hits\": " << s.hits << ", \"misses\": "
            << s.misses << ", \"joined\": " << s.joined
            << ", \"server_p50_us\": " << s.p50us
            << ", \"server_p99_us\": " << s.p99us << " }\n"
            << "}\n";
        out.flush();
        if (!out_path.empty())
            std::printf("wrote %s\n", out_path.c_str());

        // Acceptance bar: warm hits answered from the loaded store in
        // well under a millisecond at the 99th percentile.
        if (warm_p99 >= 1000.0) {
            std::fprintf(stderr,
                         "FAIL: warm-hit p99 %.1f us >= 1 ms\n",
                         warm_p99);
            return 1;
        }
        if (errors != 0) {
            std::fprintf(stderr, "FAIL: %llu client errors\n",
                         static_cast<unsigned long long>(errors));
            return 1;
        }
        return 0;
    });
}
