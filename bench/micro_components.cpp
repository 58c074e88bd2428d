/**
 * @file
 * Component micro-benchmarks (google-benchmark): raw throughput of
 * the tag array, MSHR file, DRAM channel, crossbar, trace generator,
 * and the whole-GPU cycle loop. Useful for tracking simulator
 * performance regressions; not a paper figure.
 */
#include <benchmark/benchmark.h>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "interconnect/crossbar.hpp"
#include "mem/address_map.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/gpu.hpp"
#include "workload/app_catalog.hpp"
#include "workload/trace_gen.hpp"

namespace {

using namespace ebm;

GpuConfig
benchConfig(std::uint32_t num_apps)
{
    GpuConfig cfg;
    cfg.numApps = num_apps;
    return cfg;
}

void
BM_TagArrayAccess(benchmark::State &state)
{
    TagArray tags(GpuConfig{}.l1);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tags.access((i++ % 4096) * 128, 0, true));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagArrayAccess);

void
BM_CacheAccessMissFill(benchmark::State &state)
{
    Cache cache(GpuConfig{}.l1, 1);
    MemRequest req;
    req.app = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        req.lineAddr = (i++ % 1024) * 128;
        const CacheOutcome out = cache.access(req);
        if (out == CacheOutcome::MissNew)
            cache.fill(req.lineAddr, 0, false);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessMissFill);

void
BM_DramChannelStreaming(benchmark::State &state)
{
    const GpuConfig cfg = benchConfig(1);
    DramChannel dram(cfg, 1);
    MemRequest req;
    req.app = 0;
    DramCoord coord;
    std::uint64_t i = 0;
    for (auto _ : state) {
        if (!dram.queueFull()) {
            coord.bank = static_cast<std::uint32_t>(i / 16 % 16);
            coord.row = i / 256;
            coord.col = static_cast<std::uint32_t>(i % 16);
            dram.enqueue(req, coord);
            ++i;
        }
        DramCompletion done;
        benchmark::DoNotOptimize(dram.tick(done));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramChannelStreaming);

void
BM_DramChannelContended(benchmark::State &state)
{
    // Two apps with random bank and row, the queue topped up to full
    // every cycle: the FR-FCFS scan at its deepest.
    const GpuConfig cfg = benchConfig(2);
    DramChannel dram(cfg, 2);
    Rng rng(1);
    MemRequest req;
    DramCoord coord;
    for (auto _ : state) {
        while (!dram.queueFull()) {
            req.app = static_cast<AppId>(rng.nextBounded(2));
            coord.bank = static_cast<std::uint32_t>(
                rng.nextBounded(cfg.banksPerChannel));
            coord.row = rng.nextBounded(8);
            coord.col = static_cast<std::uint32_t>(rng.nextBounded(16));
            dram.enqueue(req, coord);
        }
        DramCompletion done;
        benchmark::DoNotOptimize(dram.tick(done));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramChannelContended);

void
BM_CrossbarTick(benchmark::State &state)
{
    const GpuConfig cfg = benchConfig(1);
    Crossbar xbar(cfg);
    MemRequest req;
    req.app = 0;
    Cycle now = 0;
    std::uint32_t in = 0;
    for (auto _ : state) {
        if (xbar.requestNet().canAccept(in, 0))
            xbar.requestNet().inject(in, 0, req);
        in = (in + 1) % cfg.numCores;
        xbar.tick(++now);
        MemRequest out;
        while (xbar.requestNet().tryEject(0, now, out))
            benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrossbarTick);

void
BM_TraceGenAddress(benchmark::State &state)
{
    TraceGen gen(findApp("BFS"), 128);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.lineAddr(i % 97, i, 0, i));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGenAddress);

void
BM_GpuCycleSoloStreaming(benchmark::State &state)
{
    GpuConfig cfg = benchConfig(1);
    cfg.numCores = 8;
    Gpu gpu(cfg, {findApp("BLK")});
    for (auto _ : state)
        gpu.tick();
    state.SetItemsProcessed(state.iterations());
    state.counters["IPC"] = gpu.appIpc(0);
}
BENCHMARK(BM_GpuCycleSoloStreaming);

void
BM_GpuCycleTwoApps(benchmark::State &state)
{
    GpuConfig cfg = benchConfig(2);
    Gpu gpu(cfg, {findApp("BLK"), findApp("BFS")});
    for (auto _ : state)
        gpu.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GpuCycleTwoApps);

/**
 * Whole-GPU simulation loop via Gpu::run() — the path every sweep and
 * harness drive takes. Items/sec = simulated cycles per wall second.
 * The memory-bound BFS+FFT pair spends most cycles waiting on DRAM,
 * the case the quiescence fast-forward was built for. On the standard
 * machine, though, some core always has an event pending: perfbench's
 * simloop workload measures ff_skipped_frac = 0 on all six of its
 * cases (BFS+FFT and BLK+RAY at TLP 1/4/24), and skipped_frac below
 * reports the share this pair actually skips. The Serial variant pins
 * the pre-optimization baseline for comparison.
 */
void
gpuRunMemBoundPair(benchmark::State &state, bool fast_forward)
{
    GpuConfig cfg = benchConfig(2);
    Gpu gpu(cfg, {findApp("BFS"), findApp("FFT")});
    gpu.setFastForward(fast_forward);
    constexpr Cycle kChunk = 10'000;
    for (auto _ : state)
        gpu.run(kChunk);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChunk);
    state.counters["skipped_frac"] =
        static_cast<double>(gpu.fastForwardedCycles()) /
        static_cast<double>(gpu.now());
}

// Fixed iteration counts so both variants simulate the *same* cycle
// range (cost varies along the workload; floating iteration counts
// would compare different phases).
void
BM_GpuRunMemBoundPairSerial(benchmark::State &state)
{
    gpuRunMemBoundPair(state, false);
}
BENCHMARK(BM_GpuRunMemBoundPairSerial)->Iterations(30);

void
BM_GpuRunMemBoundPairFast(benchmark::State &state)
{
    gpuRunMemBoundPair(state, true);
}
BENCHMARK(BM_GpuRunMemBoundPairFast)->Iterations(30);

/**
 * Warm re-run of the memory-bound pair: the same machine after
 * reset(flush_caches=false), as perfbench's simloop warm phase runs
 * it. Most core-cycles here are dormant (no warp can issue until a
 * fill), so this is where the per-core idle path shows. TLP 1 keeps
 * the warm machine issuing: at TLP 4 and up it stops within 100k
 * cycles on L1 MSHR entries that reset(false) keeps but whose fills
 * it dropped (ROADMAP.md), which instrs_per_cycle would show. Fixed
 * iterations, so every run times the same 100k-cycle range.
 */
void
BM_GpuRunWarmPair(benchmark::State &state)
{
    GpuConfig cfg = benchConfig(2);
    Gpu gpu(cfg, {findApp("BFS"), findApp("FFT")});
    gpu.setAppTlp(0, 1);
    gpu.setAppTlp(1, 1);
    constexpr Cycle kChunk = 10'000;
    constexpr Cycle kColdRun = 100'000;
    gpu.run(kColdRun);
    gpu.reset(false);
    for (auto _ : state)
        gpu.run(kChunk);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChunk);
    state.counters["instrs_per_cycle"] =
        static_cast<double>(gpu.appInstrs(0) + gpu.appInstrs(1)) /
        static_cast<double>(gpu.now());
}
BENCHMARK(BM_GpuRunWarmPair)->Iterations(10);

/** Compute-heavy co-run: the fast-forward gate must not cost here. */
void
BM_GpuRunBusyPairFast(benchmark::State &state)
{
    GpuConfig cfg = benchConfig(2);
    Gpu gpu(cfg, {findApp("BLK"), findApp("RAY")});
    constexpr Cycle kChunk = 10'000;
    for (auto _ : state)
        gpu.run(kChunk);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kChunk);
    state.counters["skipped_frac"] =
        static_cast<double>(gpu.fastForwardedCycles()) /
        static_cast<double>(gpu.now());
}
BENCHMARK(BM_GpuRunBusyPairFast);

} // namespace

BENCHMARK_MAIN();
