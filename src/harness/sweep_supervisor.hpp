/**
 * @file
 * Process-level supervision for sharded sweeps: fork N workers, watch
 * them, restart the ones that die or hang, and report what happened.
 *
 * The sharded sweep already survives worker death at the *protocol*
 * level — leases go stale and peers take the rows over — but someone
 * still has to put a replacement worker back, or an N-way sweep
 * quietly degrades to 1-way after N-1 crashes. SweepSupervisor is
 * that someone: a parent process that
 *
 *   - forks one worker per shard slot (the caller's function runs in
 *     the child and its return value becomes the exit code),
 *   - reaps exits with waitpid and restarts crashed workers (nonzero
 *     exit or a signal) under a capped exponential backoff and a
 *     per-slot restart budget,
 *   - watches per-slot heartbeat files (EBM_WORKER_HEARTBEAT, touched
 *     by the sweep loop and by LeaseHeartbeater ticks) and SIGKILLs a
 *     worker whose heartbeat goes silent for longer than the hang
 *     timeout — a live-but-stuck worker is a crash that forgot to
 *     happen, and its leases only go stale after it stops
 *     heartbeating them.
 *
 * Per-row retry budgets stay where they were: inside the sweep
 * (maxRetries + durable skip markers). The supervisor budgets whole
 * *worker lives*, so a worker that dies on a poison row a few times
 * stops being restarted instead of crash-looping forever — the
 * surviving workers replicate the row's skip marker and finish the
 * sweep without it.
 *
 * Determinism: supervision never touches result bytes. Workers append
 * to the last-wins store under the lease protocol, so any interleaving
 * of crashes, restarts, and takeovers compacts to the same canonical
 * file (the chaos suite checks exactly this with cmp).
 */
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ebm {

/** Fork-and-restart supervisor for N sharded sweep workers. */
class SweepSupervisor
{
  public:
    struct Options
    {
        /** Shard slots (one worker process per slot). */
        std::uint32_t workers = 2;
        /** Restart budget per slot (beyond the first launch). */
        std::uint32_t maxRestarts = 5;
        /** Silence on the slot's heartbeat file before the worker is
         * declared hung and SIGKILLed. Zero = derive from the lease
         * staleness window (4x EBM_CLAIM_STALE_MS). */
        std::chrono::milliseconds hangTimeout{0};
        /** Capped exponential restart backoff: base * 2^restarts,
         * clamped to cap. */
        std::chrono::milliseconds backoffBase{50};
        std::chrono::milliseconds backoffCap{2000};
        /** Directory for the per-slot heartbeat files (created if
         * missing). Empty = no hang detection, crash-only restarts. */
        std::string heartbeatDir;
        /** Coordinator address ("host:port") exported to each worker
         * child as EBM_COORDINATOR, so supervised workers lease rows
         * over TCP instead of from the same-host election. Empty =
         * inherit the parent's environment unchanged. */
        std::string coordinator;
    };

    /** What happened to one slot across all its worker lives. */
    struct WorkerReport
    {
        std::uint32_t slot = 0;
        pid_t lastPid = -1;
        std::uint32_t restarts = 0;  ///< Replacement launches.
        std::uint32_t hangKills = 0; ///< SIGKILLs for silent heartbeat.
        bool succeeded = false;      ///< Some life exited 0.
        bool budgetExhausted = false;
        int lastStatus = 0;          ///< Raw waitpid status.
    };

    struct Report
    {
        std::vector<WorkerReport> workers;
        bool allSucceeded = false;
        std::uint32_t totalRestarts = 0;
        std::uint32_t totalHangKills = 0;

        /** One status line for logs and tests. */
        std::string summaryLine() const;
    };

    /**
     * The worker body, run in the forked child; its return value is
     * the worker's exit code (0 = success). @p slot is the shard slot
     * [0, workers), @p attempt counts this slot's lives from 0.
     * The child's environment carries EBM_WORKER_HEARTBEAT pointing
     * at the slot's heartbeat file (when heartbeatDir is set).
     */
    using WorkerFn =
        std::function<int(std::uint32_t slot, std::uint32_t attempt)>;

    explicit SweepSupervisor(Options options);

    /** Fork, supervise, and reap all slots to completion (success or
     * exhausted budget). Blocks until every slot is settled. */
    Report run(const WorkerFn &worker);

    /** The heartbeat file a slot's workers touch (empty when hang
     * detection is off). */
    std::string heartbeatPath(std::uint32_t slot) const;

    const Options &options() const { return options_; }

  private:
    Options options_;
};

} // namespace ebm
