/**
 * @file
 * End-to-end sweep-engine benchmark (google-benchmark): the wall
 * clock of a *cold* Figure-1-shaped exhaustive sweep (2 catalog apps,
 * the standard 8-level ladder, 64 combinations, empty disk cache) and
 * of a *warm* ProfileDb pass (every alone-run level already cached).
 *
 * The cold case is the harness's dominant workload and the target of
 * the reuse work: shared trace artifacts, cost-ordered dispatch, and
 * the sharded cache all land here. Worker count follows EBM_JOBS,
 * like every sweep (the recorded BENCH_sweep.json procedure pins
 * EBM_JOBS=8; see EXPERIMENTS.md). Not a paper figure.
 */
#include <benchmark/benchmark.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/runtime_config.hpp"
#include "harness/coordinator.hpp"
#include "harness/disk_cache.hpp"
#include "harness/exhaustive.hpp"
#include "harness/profile_db.hpp"
#include "harness/runner.hpp"
#include "harness/warm_state.hpp"
#include "workload/app_catalog.hpp"
#include "workload/workload_suite.hpp"

namespace {

using namespace ebm;

/** The fast-test machine shape: big enough to exercise every
 * subsystem, small enough that a 64-combo cold sweep is seconds. */
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

/**
 * One cold 64-combination sweep per iteration: fresh cache file,
 * fresh Exhaustive, the full standard ladder for BFS_FFT.
 */
void
BM_SweepEndToEnd(benchmark::State &state)
{
    const std::string path = "bench_sweep_cold.cache";
    Runner runner(benchConfig(), benchOptions());
    const Workload wl = makePair("BFS", "FFT");

    std::size_t simulated = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t batches = 0;
    std::uint64_t appended = 0;
    for (auto _ : state) {
        std::remove(path.c_str());
        DiskCache cache(path);
        Exhaustive ex(runner, cache);
        ex.sweep(wl);
        simulated += ex.status().simulated;
        bytes_written += cache.bytesWritten();
        batches += cache.appendBatches();
        appended += cache.entriesAppended();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(simulated));
    // Persist amplification: append-only v3 should write O(new
    // entries) bytes, a fraction of the v2 rewrite-per-burst cost.
    state.counters["persist_bytes"] = static_cast<double>(bytes_written);
    state.counters["append_batches"] = static_cast<double>(batches);
    if (appended > 0) {
        state.counters["bytes_per_entry"] =
            static_cast<double>(bytes_written) /
            static_cast<double>(appended);
    }

    std::remove(path.c_str());
}
BENCHMARK(BM_SweepEndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

/**
 * Warm-state forking on a warmup-heavy sweep: the same cold 64-combo
 * fig01-shaped sweep as BM_SweepEndToEnd, but with a 12000-cycle
 * warmup against a 6000-cycle measurement, so the shared prefix
 * dominates. range(0) toggles EBM_SNAPSHOT: fork=off re-simulates the
 * prefix 64 times (~64*(W+M) cycles of work); fork=on simulates it
 * once and forks every combination from the capture (~W + 64*M).
 * With W=2M the ideal ratio is ~3x; the recorded BENCH_sweep.json
 * procedure (interleaved A/B, EXPERIMENTS.md) pins the achieved
 * median. The standard sweep options (W=1000, M=6000) cap the ratio
 * near 1.17x, which is why this benchmark carries its own options.
 */
void
BM_SweepSnapshot(benchmark::State &state)
{
    const bool fork_on = state.range(0) != 0;
    RuntimeConfig::Override snapshots(
        [fork_on](RuntimeConfig &c) { c.snapshot = fork_on; });
    WarmStateCache::instance().clear();

    RunOptions opts = benchOptions();
    opts.warmupCycles = 12000;
    opts.measureCycles = 6000;
    opts.windowCycles = 500;

    const std::string path = "bench_sweep_snap.cache";
    Runner runner(benchConfig(), opts);
    const Workload wl = makePair("BFS", "FFT");

    std::size_t simulated = 0;
    const WarmStateCache::Stats before =
        WarmStateCache::instance().stats();
    for (auto _ : state) {
        std::remove(path.c_str());
        WarmStateCache::instance().clear();
        DiskCache cache(path);
        Exhaustive ex(runner, cache);
        ex.sweep(wl);
        simulated += ex.status().simulated;
    }
    const WarmStateCache::Stats after =
        WarmStateCache::instance().stats();
    state.SetLabel(fork_on ? "fork=on" : "fork=off");
    state.SetItemsProcessed(static_cast<std::int64_t>(simulated));
    state.counters["snapshot_hits"] =
        static_cast<double>(after.hits - before.hits);
    state.counters["snapshot_misses"] =
        static_cast<double>(after.misses - before.misses);

    std::remove(path.c_str());
    WarmStateCache::instance().clear();
}
BENCHMARK(BM_SweepSnapshot)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

/**
 * The warm complement: every alone-run level of both apps is already
 * in the disk cache, so an iteration measures fingerprinting, cache
 * probing, and profile assembly — the path every bench binary takes
 * after its first run.
 */
void
BM_SweepWarmProfileDb(benchmark::State &state)
{
    const std::string path = "bench_sweep_warm.cache";
    std::remove(path.c_str());
    Runner runner(benchConfig(), benchOptions());
    {
        DiskCache warmup(path);
        ProfileDb db(runner, warmup);
        db.profile(findApp("BFS"));
        db.profile(findApp("FFT"));
    }

    DiskCache cache(path);
    for (auto _ : state) {
        ProfileDb db(runner, cache);
        benchmark::DoNotOptimize(db.profile(findApp("BFS")).bestTlp);
        benchmark::DoNotOptimize(db.profile(findApp("FFT")).bestTlp);
    }
    if (cache.misses() != 0)
        state.SkipWithError("warm pass missed the cache");
    std::remove(path.c_str());
}
BENCHMARK(BM_SweepWarmProfileDb)->Unit(benchmark::kMillisecond);

/**
 * Opening an existing store: one DiskCache construction over a
 * 64-entry file per iteration — the pread + single-pass frame scan
 * every bench binary pays on startup before its warm probes.
 */
void
BM_CacheOpen(benchmark::State &state)
{
    const std::string path = "bench_cache_open.cache";
    std::remove(path.c_str());
    Runner runner(benchConfig(), benchOptions());
    {
        DiskCache seed(path);
        Exhaustive ex(runner, seed);
        ex.sweep(makePair("BFS", "FFT"));
    }

    std::size_t loaded = 0;
    for (auto _ : state) {
        DiskCache cache(path);
        benchmark::DoNotOptimize(cache.size());
        loaded += cache.loadReport().entriesLoaded;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(loaded));
    std::remove(path.c_str());
}
BENCHMARK(BM_CacheOpen)->Unit(benchmark::kMicrosecond);

/**
 * Cross-process cold sweep: range(0) cooperating processes share one
 * store, splitting the 64 simulations through the store's elected
 * local coordinator instead of each running all of them.
 * The server's lease RPC service time over the local socket is
 * reported as rpc_p50_us / rpc_p99_us. Wall clock is
 * the parent's fork-to-last-exit span; at N processes the aggregate
 * simulation work stays ~64 rows, so the span approaches the
 * single-process time divided by the usable core count (on a loaded
 * or single-core host, the win shows up as work-sharing: the per-
 * process simulated count drops to ~64/N).
 *
 * Forking happens before any worker threads exist in the parent
 * (children use EBM_JOBS=1), so no lock is ever cloned while held.
 */
void
BM_SweepMultiProcess(benchmark::State &state)
{
    const int procs = static_cast<int>(state.range(0));
    const std::string path = "bench_sweep_mp.cache";
    const std::string rpc_path = path + ".rpc";

    double p50_us = 0.0;
    double p99_us = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        std::remove(path.c_str());
        std::remove(rpc_path.c_str());
        int done[2];
        int go[2];
        if (::pipe(done) != 0 || ::pipe(go) != 0) {
            state.SkipWithError("pipe failed");
            break;
        }
        state.ResumeTiming();

        std::vector<pid_t> kids;
        for (int c = 0; c < procs; ++c) {
            const pid_t pid = ::fork();
            if (pid == 0) {
                ::close(done[0]);
                ::close(go[1]);
                {
                    Runner runner(benchConfig(), benchOptions());
                    DiskCache cache(path);
                    Exhaustive ex(runner, cache);
                    ex.setJobs(1);
                    ex.sweep(makePair("BFS", "FFT"));
                    // Once every peer has finished its sweep, the
                    // elected server's RPC receipts are final.
                    char byte = 1;
                    (void)!::write(done[1], &byte, 1);
                    (void)!::read(go[0], &byte, 1);
                    if (const Coordinator *server = cache.leaseServer()) {
                        const Coordinator::Stats st = server->stats();
                        std::ofstream(rpc_path)
                            << st.rpcP50Us << " " << st.rpcP99Us;
                    }
                }
                ::_exit(0);
            }
            kids.push_back(pid);
        }
        ::close(done[1]);
        ::close(go[0]);
        for (int c = 0; c < procs; ++c) {
            char byte = 0;
            if (::read(done[0], &byte, 1) != 1)
                break;
        }
        ::close(go[1]);
        ::close(done[0]);
        for (const pid_t pid : kids) {
            int status = 0;
            ::waitpid(pid, &status, 0);
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                state.SkipWithError("sharded child failed");
        }
        std::ifstream(rpc_path) >> p50_us >> p99_us;
    }
    state.SetLabel("procs=" + std::to_string(procs));
    state.counters["rpc_p50_us"] = p50_us;
    state.counters["rpc_p99_us"] = p99_us;

    std::remove(path.c_str());
    std::remove(rpc_path.c_str());
}
BENCHMARK(BM_SweepMultiProcess)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

} // namespace

BENCHMARK_MAIN();
