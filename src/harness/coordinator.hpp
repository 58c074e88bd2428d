/**
 * @file
 * The sweep coordinator: the one implementation of lease semantics
 * in the fill fabric (DESIGN.md §8.3, §8.6). A Coordinator hands out
 * row leases over one result store, on either of two listeners:
 *
 *   - a same-host abstract AF_UNIX socket named after the store
 *     (EBM_SWEEP_SHARD=1): the process that wins bind() runs the
 *     Coordinator inside its DiskCache and every process filling the
 *     store, its own included, leases through it. Only peers with
 *     this process's uid are accepted (SO_PEERCRED). Results travel
 *     through the shared store file, so PUT/GET go unused;
 *   - TCP (the ebm_coordinator daemon, EBM_COORDINATOR=host:port):
 *     ebm_sweep_worker processes share no file and stream CRC-framed
 *     v3 records back, which the coordinator group-commits through
 *     its own DiskCache writer.
 *
 * Either way `compact()` byte-identity stays the merge invariant.
 *
 * Protocol: EBS1 frames (common/wire.hpp), one request/response pair
 * per frame. Text verbs, with the record stream carrying raw storefmt
 * frame bytes after the verb line:
 *
 *   HELLO <fingerprint> <catalogVersion>  -> OK <staleMs> | ERROR ...
 *   ACQ <key>            -> OK <epoch> | HELD | SKIP
 *   HB <epoch> <key>     -> OK | FENCED
 *   REL <epoch> <key>    -> OK | FENCED      (streamed records synced)
 *   SKIPMARK <epoch> <key> -> OK | FENCED
 *   PEEK <key>           -> ABSENT | ACTIVE | STALE | SKIP
 *   BREAK <key>          -> OK <epoch> | DENIED
 *   GET <key>            -> HIT\n<storefmt frame> | MISS
 *   PUT\n<storefmt frame> -> OK | ERROR ...
 *   PING / STATS / SHUTDOWN -> OK ...
 *
 * Fencing: the coordinator is the single authority for per-key
 * epochs, which live in memory for its lifetime. Heartbeats are RPCs
 * timestamped on the coordinator's clock, and staleness is judged
 * against EBM_CLAIM_STALE_MS (leaseStaleThreshold()). A connection
 * that drops — worker killed, crashed mid-record-stream, network
 * gone — orphans its leases immediately: peers see STALE without
 * waiting out the window, BREAK reassigns the row under a bumped
 * epoch, and the dead owner's epoch-carrying verbs are refused
 * (FENCED) if it ever resurfaces. A record cut off mid-stream never
 * reaches the store at all: the wire frame doesn't reassemble, so
 * unlike a torn file append there is no tail to truncate.
 *
 * Lease RPC service time is recorded in a LatencyHistogram
 * (common/stats.hpp) and surfaced through STATS and stats() — the
 * fabric's scaling story depends on this number staying microscopic
 * next to a row's simulation time.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/net.hpp"
#include "common/stats.hpp"

namespace ebm {

class DiskCache;

/** Lease/record server over one result store. */
class Coordinator
{
  public:
    struct Options
    {
        /** Numeric IPv4 bind address (empty = all interfaces). */
        std::string host = "127.0.0.1";
        /** 0 = kernel-assigned ephemeral; read back with port(). */
        std::uint16_t port = 0;
        /** Lease staleness window; zero = leaseStaleThreshold(). */
        std::chrono::milliseconds staleThreshold{0};
        /** Honor the SHUTDOWN verb (daemon mode). */
        bool allowRemoteShutdown = false;
    };

    /** Monotonic service counters + lease RPC latency percentiles. */
    struct Stats
    {
        std::uint64_t connections = 0;
        std::uint64_t rpcs = 0;
        std::uint64_t acquiresGranted = 0;
        std::uint64_t acquiresDenied = 0;
        std::uint64_t takeovers = 0;   ///< BREAK reassignments.
        std::uint64_t fencedOps = 0;   ///< Stale-epoch verbs refused.
        std::uint64_t orphanedLeases = 0; ///< Dropped connections.
        std::uint64_t recordsCommitted = 0;
        std::uint64_t recordBytes = 0;
        std::uint64_t fetchHits = 0;
        std::uint64_t fetchMisses = 0;
        std::uint64_t skipsMarked = 0;
        std::uint64_t badFrames = 0;   ///< PUT payloads that failed CRC.
        double rpcP50Us = 0.0;
        double rpcP99Us = 0.0;

        std::string summaryLine() const;
    };

    Coordinator(DiskCache &cache, Options options);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Create and bind the listener without starting any thread; after
     * this, port() is final. Split from start() so a test or bench
     * can fork workers between bind and start — children inherit one
     * quiet listening fd instead of a running thread's locks, and
     * their connects queue in the backlog until start().
     */
    Status bind();

    /** bind() if not yet bound, then start the accept thread. */
    Status start();

    /** Serve on an already-bound Unix-domain @p listener (the elected
     * same-host socket) instead of TCP. Peers running under another
     * uid are refused at accept. */
    Status start(UniqueFd listener);

    /**
     * Shut down gracefully: stop accepting at once (freeing the
     * listener's name for the next election), wait at most one
     * staleness window for connected peers to hang up, then stop().
     * A peer still connected after that degrades to standalone.
     */
    void retire();

    /** Stop accepting, shut open connections, join all threads. Safe
     * to call twice; the destructor calls it. */
    void stop();

    /** The bound port (after bind()/start()); 0 before. */
    std::uint16_t port() const { return port_; }

    /** "host:port" for workers' EBM_COORDINATOR. */
    std::string address() const;

    Stats stats() const;

    /** Did a client ask for SHUTDOWN (daemon mode)? */
    bool shutdownRequested() const;

    /** Block until SHUTDOWN or stop(). */
    void waitForShutdown();

    /** The staleness window in force (options or env). */
    std::chrono::milliseconds staleThreshold() const;

  private:
    struct Lease
    {
        std::uint64_t epoch = 0;
        std::chrono::steady_clock::time_point beat;
        std::uint64_t conn = 0;
        bool orphaned = false; ///< Owner's connection dropped.
    };

    void acceptLoop();
    void serveConnection(int fd, std::uint64_t conn_id);
    /** Join connection threads that have finished (connMu_ held). */
    void reapFinishedLocked();
    /** Handle one request payload; returns the response payload. */
    std::string handle(const std::string &payload,
                       std::uint64_t conn_id);
    std::string handleAcquire(const std::string &key,
                              std::uint64_t conn_id);
    std::string handleBreak(const std::string &key,
                            std::uint64_t conn_id);
    std::string handlePeek(const std::string &key);
    std::string handlePut(const std::string &payload);
    std::string handleGet(const std::string &key);
    /** Validate an epoch-carrying verb; erases the lease on success
     * when @p erase is set. */
    bool validateEpoch(const std::string &key, std::uint64_t epoch,
                       bool erase);
    void orphanConnection(std::uint64_t conn_id);
    std::string statsLine() const;

    DiskCache &cache_;
    Options options_;

    UniqueFd listener_;
    std::uint16_t port_ = 0;
    /** Serving the same-host Unix socket (peer uid checked). */
    bool local_ = false;
    std::thread acceptThread_;
    bool started_ = false;
    /** A PUT has been committed: REL must sync before acking. */
    std::atomic<bool> streamed_{false};

    mutable std::mutex connMu_;
    std::unordered_map<std::uint64_t, std::thread> connThreads_;
    /** Connections whose thread has finished serving (to join). */
    std::vector<std::uint64_t> finished_;
    std::unordered_set<int> openFds_;
    std::uint64_t nextConnId_ = 1;
    bool stopping_ = false;
    bool shutdownRequested_ = false;
    /** Signals SHUTDOWN/stop() and connections closing (retire()). */
    std::condition_variable shutdownCv_;

    mutable std::mutex leaseMu_;
    std::unordered_map<std::string, Lease> leases_;
    /** Per-key monotonic epoch counters. */
    std::unordered_map<std::string, std::uint64_t> epochs_;
    std::unordered_map<std::string,
                       std::chrono::steady_clock::time_point>
        skips_;

    LatencyHistogram rpcLatency_;
    mutable std::mutex statsMu_;
    Stats counters_;
};

} // namespace ebm
