#include "harness/runner.hpp"

#include <bit>
#include <sstream>

#include "common/fault_injector.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/runtime_config.hpp"
#include "harness/gpu_pool.hpp"
#include "harness/warm_state.hpp"
#include "sim/gpu.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {

namespace {

/** EB-monitor relay latency used by every measured run. */
constexpr Cycle kRelayLatency = 100;

/** Absolute counter totals at a point in time, per app. */
struct CounterTotals
{
    std::vector<std::uint64_t> instrs;
    std::vector<std::uint64_t> dataCycles;
    std::vector<std::uint64_t> l1Acc, l1Miss, l2Acc, l2Miss;
    Cycle coreCycles = 0;
    Cycle dramCycles = 0;
};

CounterTotals
takeSnapshot(const Gpu &gpu)
{
    const std::uint32_t n = gpu.numApps();
    CounterTotals s;
    s.instrs.resize(n);
    s.dataCycles.resize(n);
    s.l1Acc.resize(n);
    s.l1Miss.resize(n);
    s.l2Acc.resize(n);
    s.l2Miss.resize(n);
    s.coreCycles = gpu.now();
    s.dramCycles = gpu.partition(0).dramCyclesElapsed();
    for (AppId app = 0; app < n; ++app) {
        s.instrs[app] = gpu.appInstrs(app);
        s.dataCycles[app] = gpu.appDataCycles(app);
        for (CoreId id : gpu.coresOf(app)) {
            const CacheStats &cs = gpu.core(id).l1().stats();
            s.l1Acc[app] += cs.accesses(app);
            s.l1Miss[app] += cs.misses(app);
        }
        for (PartitionId p = 0; p < gpu.numPartitions(); ++p) {
            const CacheStats &cs = gpu.partition(p).l2().stats();
            s.l2Acc[app] += cs.accesses(app);
            s.l2Miss[app] += cs.misses(app);
        }
    }
    return s;
}

RunResult
diffSnapshots(const Gpu &gpu, const CounterTotals &a,
              const CounterTotals &b)
{
    const std::uint32_t n = gpu.numApps();
    RunResult r;
    r.apps.resize(n);
    r.measuredCycles = b.coreCycles - a.coreCycles;
    const double core_cycles = static_cast<double>(r.measuredCycles);
    const double dram_cycles =
        static_cast<double>(b.dramCycles - a.dramCycles);
    const double peak_data =
        dram_cycles * static_cast<double>(gpu.numPartitions());

    for (AppId app = 0; app < n; ++app) {
        AppRunStats &out = r.apps[app];
        out.ipc = core_cycles == 0.0
                      ? 0.0
                      : static_cast<double>(b.instrs[app] -
                                            a.instrs[app]) /
                            core_cycles;
        out.bw = peak_data == 0.0
                     ? 0.0
                     : static_cast<double>(b.dataCycles[app] -
                                           a.dataCycles[app]) /
                           peak_data;
        const auto l1a = b.l1Acc[app] - a.l1Acc[app];
        const auto l1m = b.l1Miss[app] - a.l1Miss[app];
        const auto l2a = b.l2Acc[app] - a.l2Acc[app];
        const auto l2m = b.l2Miss[app] - a.l2Miss[app];
        out.l1Mr = l1a == 0 ? 1.0
                            : static_cast<double>(l1m) /
                                  static_cast<double>(l1a);
        out.l2Mr = l2a == 0 ? 1.0
                            : static_cast<double>(l2m) /
                                  static_cast<double>(l2a);
        r.totalBw += out.bw;
    }
    for (AppId app = 0; app < n; ++app)
        r.finalTlp.push_back(gpu.appTlp(app));
    return r;
}

/**
 * Content hash of one application profile. Keying the warm cache by
 * profile *content* (not name) means a test's custom profile named
 * like a catalog one can never alias a foreign checkpoint.
 */
std::uint64_t
profileContentHash(const AppProfile &p)
{
    std::uint64_t h =
        hashIds(p.seed, p.mlpBurst, p.computeRun, p.storesPerLoop);
    h = hashIds(h, std::bit_cast<std::uint64_t>(p.fracL1Reuse),
                std::bit_cast<std::uint64_t>(p.fracL2Reuse),
                std::bit_cast<std::uint64_t>(p.fracRandom));
    h = hashIds(h, p.l1ReuseLines, p.l2ReuseLines,
                p.streamRegionLines);
    h = hashIds(h, p.randomRegionLines, p.randomLinesPerAccess);
    for (const char c : p.name)
        h = hashIds(h, static_cast<std::uint64_t>(c));
    return h;
}

/**
 * In-memory key of the policy-neutral warm prefix: everything its
 * trajectory depends on — the machine (full config hash), the window
 * length, the relay latency, each profile's content, and the core
 * split. Deliberately *not* warmup/measure/relaunch: the prefix is
 * policy- and span-free, so runs with different spans share captures.
 */
std::uint64_t
warmBaseKey(const GpuConfig &cfg, const std::vector<AppProfile> &apps,
            const std::vector<std::uint32_t> &core_share,
            Cycle window_cycles)
{
    std::uint64_t h =
        hashIds(configHash(cfg), window_cycles, kRelayLatency, 0x3a97);
    for (const AppProfile &p : apps)
        h = hashIds(h, profileContentHash(p));
    for (const std::uint32_t s : core_share)
        h = hashIds(h, s, 0x5c0e);
    return h;
}

} // namespace

Runner::Runner(GpuConfig cfg, RunOptions opts)
    : cfg_(std::move(cfg)), opts_(opts)
{
    // Report *all* option problems at once (the config itself is
    // validated by the Gpu constructor per run, once numApps is set).
    const std::vector<Error> errors = opts_.check();
    if (!errors.empty()) {
        fatal(Error{Errc::InvalidConfig,
                    "Runner: invalid RunOptions:\n  " +
                        joinErrors(errors)});
    }
}

RunResult
Runner::run(const std::vector<AppProfile> &apps, TlpPolicy &policy,
            std::vector<std::uint32_t> core_share) const
{
    GpuConfig cfg = cfg_;
    cfg.numApps = static_cast<std::uint32_t>(apps.size());
    const Cycle win = opts_.windowCycles;
    const std::uint64_t base_key =
        warmBaseKey(cfg, apps, core_share, win);
    // Lease the machine from this worker's pool: a repeat of the same
    // (config, apps, core share) reuses a reset instance instead of
    // reconstructing one. If this run throws, the lease destructor
    // sees the unwinding and discards the instance (poisoning).
    GpuPool::Lease lease = GpuPool::threadLocal().acquire(
        cfg, apps, std::move(core_share));
    Gpu &gpu = lease.gpu();

    // Injected run failure (robustness tests): the run dies without
    // producing a result, as a crashed/killed simulation would. It
    // fires with the machine leased, so the unwinding also exercises
    // the pool's poisoning path — exactly what a genuine mid-run
    // crash would do.
    if (opts_.faultInjector != nullptr &&
        opts_.faultInjector->shouldFire(FaultInjector::Point::RunFail)) {
        fatal(Error{Errc::RunFailed, "Runner: injected run failure"});
    }

    EbMonitor monitor(gpu, EbMonitor::Mode::DesignatedUnits,
                      kRelayLatency, opts_.faultInjector);

    const Cycle total = opts_.warmupCycles + opts_.measureCycles;
    const bool deferred = policy.defersToMeasureStart();

    // Warm-state forking: the prefix up to the fork target is policy-
    // neutral (a deferred policy touches nothing before measure start;
    // a gpu-neutral-start policy touches nothing before the first
    // window close), so it can be simulated once per shape, captured,
    // and restored here instead of re-run per combination. Disabled by
    // the EBM_SNAPSHOT kill switch and whenever a fault injector is
    // present (injected faults must perturb the whole run).
    Cycle fork_target = 0;
    if (RuntimeConfig::get().snapshot && opts_.faultInjector == nullptr) {
        if (deferred) {
            // The measure boundary on the window ladder: the first
            // window close at or after warmup, capped at the run end.
            const Cycle ladder =
                ((opts_.warmupCycles + win - 1) / win) * win;
            fork_target =
                std::min(total, std::max<Cycle>(win, ladder));
        } else if (policy.startIsGpuNeutral()) {
            fork_target = std::min(total, win);
        }
    }

    // A deferred policy's onRunStart moves to measure start; all
    // others keep the cycle-0 call (gpu-neutral ones by contract only
    // touch their own state here).
    if (!deferred)
        policy.onRunStart(gpu);

    EbSample sample{};
    Cycle elapsed = 0;
    bool pending = false;

    if (fork_target != 0) {
        // The process-wide cache single-flights the warm simulation
        // on a miss.
        const std::shared_ptr<const WarmStateCache::Checkpoint> cp =
            WarmStateCache::instance().warmTo(base_key, gpu, fork_target,
                                              win, kRelayLatency);
        if (cp != nullptr) {
            gpu.restore(cp->gpu);
            monitor.restore(cp->monitor);
            sample = cp->sample;
            elapsed = cp->elapsed;
            pending = true;
        }
    }
    if (!pending)
        gpu.checkpoint();

    CounterTotals start{};
    bool measuring = false;
    Cycle next_relaunch = opts_.relaunchInterval == 0
                              ? kNeverCycle
                              : opts_.relaunchInterval;
    // Replay the relaunch arithmetic over the skipped prefix closes
    // (integer-only; the policy callbacks there were no-ops by the
    // neutrality contract). All skipped closes are full windows.
    for (Cycle e = win; e < elapsed; e += win) {
        if (e >= next_relaunch)
            next_relaunch += opts_.relaunchInterval;
    }

    // The loop is phrased tail-first: each iteration finishes the
    // window that last closed (policy callback, counter checkpoint,
    // measurement start, relaunch check) before running the next
    // chunk. A restored run enters with `pending` set and the fork
    // point's sample, so its first iteration performs exactly the
    // tail the capture cut in half — the call sequence is identical
    // to the cold run's.
    while (true) {
        if (pending) {
            pending = false;
            // Let the policy act on the closed window (it may also
            // read window counters, so the checkpoint happens after
            // it runs). The sample reflects the window just finished,
            // so decisions are always one window behind reality — the
            // monitor's relay latency (~100 cycles) is folded into
            // this delay.
            policy.onWindow(gpu, gpu.now(), sample);
            gpu.checkpoint();
            if (!measuring && elapsed >= opts_.warmupCycles) {
                if (deferred)
                    policy.onRunStart(gpu);
                start = takeSnapshot(gpu);
                measuring = true;
            }
            if (elapsed >= next_relaunch) {
                policy.onKernelRelaunch(gpu, gpu.now());
                next_relaunch += opts_.relaunchInterval;
            }
        }
        if (elapsed >= total)
            break;
        const Cycle chunk = std::min<Cycle>(win, total - elapsed);
        gpu.run(chunk);
        elapsed += chunk;
        sample = monitor.closeWindow(gpu.now());
        pending = true;
    }

    const CounterTotals end = takeSnapshot(gpu);
    RunResult result = diffSnapshots(gpu, start, end);
    result.samplesTaken = policy.samplesTaken();
    return result;
}

RunResult
Runner::runStatic(const std::vector<AppProfile> &apps,
                  const TlpCombo &combo,
                  std::vector<std::uint32_t> core_share) const
{
    StaticTlpPolicy policy("static", combo);
    return run(apps, policy, std::move(core_share));
}

RunResult
Runner::runAlone(const AppProfile &app, std::uint32_t tlp) const
{
    Runner solo(cfg_, opts_);
    // The paper's alone runs use the same per-app core count as the
    // shared runs ("runs alone on the same set of cores").
    solo.cfg_.numCores = cfg_.numCores / std::max(1u, cfg_.numApps);
    solo.cfg_.numApps = 1;
    return solo.runStatic({app}, {tlp});
}

std::string
Runner::fingerprint() const
{
    // Bumped whenever the fingerprint's inputs or mixing change, so
    // entries cached under an older scheme are recomputed instead of
    // aliased. v2: switched from a hand-picked field subset (which
    // silently excluded DRAM timings, cache associativity/line size,
    // latencies, and more — two different machines could share a
    // cache key) to configHash over every GpuConfig field plus every
    // RunOptions field. v3: static policies now apply their TLP combo
    // at measure start instead of cycle 0 (the warm-state fork
    // change), which shifts every measured number; results cached
    // under the old semantics must not alias the new ones.
    constexpr std::uint64_t kFingerprintVersion = 3;

    std::uint64_t h = configHash(cfg_);
    h = hashIds(h, opts_.warmupCycles, opts_.measureCycles,
                opts_.windowCycles);
    // The fault injector is deliberately excluded: it perturbs
    // robustness-test schedules, not measured results.
    h = hashIds(h, opts_.relaunchInterval, kAppCatalogVersion,
                kFingerprintVersion);
    std::ostringstream out;
    out << std::hex << h;
    return out.str();
}

std::string
Runner::comboKey(const std::string &wl_name, const TlpCombo &combo) const
{
    // Built with += (not operator+ on a temporary) to dodge GCC 12's
    // false-positive -Wrestrict on char* + string&&.
    std::string key = "combo/";
    key += fingerprint();
    key += '/';
    key += wl_name;
    for (const std::uint32_t t : combo) {
        key += '/';
        key += std::to_string(t);
    }
    return key;
}

std::string
Runner::aloneKey(const std::string &app_name, std::uint32_t tlp) const
{
    return "alone/" + fingerprint() + "/" + app_name + "/" +
           std::to_string(tlp);
}

} // namespace ebm
