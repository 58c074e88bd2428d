/**
 * @file
 * The sweep coordinator: the one implementation of lease semantics
 * in the fill fabric (DESIGN.md §8.3, §8.6). A Coordinator hands out
 * row leases over one result store, on the same-host AF_UNIX socket
 * elected for the store (peers with this process's uid only).
 * Results never cross the socket: peers share the store file
 * (lease_provider.hpp), and `compact()` byte-identity stays the
 * merge invariant.
 *
 * Protocol: EBS1 frames (common/wire.hpp), one request/response pair
 * per frame, text verbs:
 *
 *   HELLO <fingerprint> <catalogVersion>  -> OK <windowMs> | ERROR ...
 *   ACQ <key>            -> OK <epoch> | HELD | SKIP
 *   HB <epoch> <key>     -> OK | FENCED
 *   REL <epoch> <key>    -> OK | FENCED
 *   SKIPMARK <epoch> <key> -> OK | FENCED
 *   PEEK <key>           -> ABSENT | ACTIVE | STALE | SKIP
 *   BREAK <key>          -> OK <epoch> | DENIED
 *   PING / STATS         -> OK ...
 *
 * The STATS reply ends with the lease window in force (window_ms=)
 * and the RuntimeConfig settings as EBM_NAME=value tokens.
 *
 * Fencing: the coordinator is the single authority for per-key
 * epochs, which live in memory for its lifetime. Heartbeats are RPCs
 * timestamped on the coordinator's clock and judged against its lease
 * window (staleThreshold()), which every peer gets at HELLO and paces
 * its heartbeats from. A connection that drops — worker killed or
 * crashed — orphans its leases immediately: peers see STALE without
 * waiting out the window, BREAK reassigns the row under a bumped
 * epoch, and the dead owner's epoch-carrying verbs are refused
 * (FENCED) if it ever resurfaces.
 *
 * Accept, connection threads, bad-frame replies and shutdown belong
 * to the shared FrameServer (common/frame_server.hpp); this class
 * keeps the lease state and verbs. Lease RPC service time is recorded
 * in a LatencyHistogram (common/stats.hpp) and surfaced through STATS
 * and stats() — the fabric's scaling story depends on this number
 * staying microscopic next to a row's simulation time.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "common/frame_server.hpp"
#include "common/net.hpp"
#include "common/stats.hpp"

namespace ebm {

class DiskCache;

/** Lease server over one result store. */
class Coordinator
{
  public:
    struct Options
    {
        /** Lease window; zero = RuntimeConfig::claimStale
         * (EBM_CLAIM_STALE_MS) when the Coordinator is built. */
        std::chrono::milliseconds staleThreshold{0};
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
        std::uint64_t skipsMarked = 0;
        double rpcP50Us = 0.0;
        double rpcP99Us = 0.0;

        std::string summaryLine() const;
    };

    Coordinator(DiskCache &cache, Options options);

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Serve on an already-bound Unix-domain @p listener (the elected
     * same-host socket). Peers running under another uid are refused
     * at accept. */
    Status start(UniqueFd listener);

    /**
     * Shut down gracefully: stop accepting at once (freeing the
     * listener's name for the next election), wait at most one
     * staleness window for connected peers to hang up, then stop().
     * A peer still connected after that degrades to standalone.
     */
    void retire() { server_.retire(staleThreshold()); }

    /** Stop accepting, shut open connections, join all threads. Safe
     * to call twice; destruction does it too. */
    void stop() { server_.stop(); }

    Stats stats() const;

    /** The lease window in force (Options, else RuntimeConfig),
     * fixed at construction. */
    std::chrono::milliseconds staleThreshold() const
    {
        return options_.staleThreshold;
    }

  private:
    struct Lease
    {
        std::uint64_t epoch = 0;
        std::chrono::steady_clock::time_point beat;
        std::uint64_t conn = 0;
        bool orphaned = false; ///< Owner's connection dropped.
    };

    /** Handle one request payload; returns the response payload. */
    std::string handle(const std::string &payload,
                       std::uint64_t conn_id);
    std::string handleAcquire(const std::string &key,
                              std::uint64_t conn_id);
    std::string handleBreak(const std::string &key,
                            std::uint64_t conn_id);
    std::string handlePeek(const std::string &key);
    /** Apply epoch-carrying @p verb (HB, REL or SKIPMARK) to @p key's
     * lease; false (fenced) when @p epoch is not the lease's. */
    bool applyEpochVerb(const std::string &verb, const std::string &key,
                        std::uint64_t epoch);
    void orphanConnection(std::uint64_t conn_id);

    DiskCache &cache_;
    Options options_;

    /** Guards the lease maps and counters_. */
    mutable std::mutex mu_;
    std::unordered_map<std::string, Lease> leases_;
    /** Per-key monotonic epoch counters. */
    std::unordered_map<std::string, std::uint64_t> epochs_;
    std::unordered_map<std::string,
                       std::chrono::steady_clock::time_point>
        skips_;

    Stats counters_;
    LatencyHistogram rpcLatency_;

    /** Last: destroyed (stopped) first, while the state its
     * connection threads use is still alive. */
    FrameServer server_;
};

} // namespace ebm
