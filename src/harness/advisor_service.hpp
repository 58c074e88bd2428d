/**
 * @file
 * The advisor serving daemon's core: answer "given applications
 * {A, B}, which TLP combination should they run at?" queries against
 * the compacted v3 store, in two tiers:
 *
 *   - **hit path** (microseconds): the pair's full combination table
 *     and both alone profiles are assembled from the loaded DiskCache
 *     via the probe-only `Exhaustive::sweepCached` /
 *     `ProfileDb::profileCached`, the three SD argmaxes (WS/FI/HS)
 *     computed once, and the finished Answer memoized so repeats are
 *     one map lookup;
 *
 *   - **miss path** (asynchronous): the query is deduplicated against
 *     in-flight fills (single-flight — N clients hammering the same
 *     cold pair dispatch exactly one simulation) and enqueued to a
 *     background fill thread that drives the ordinary
 *     `ProfileDb::profile` + `Exhaustive::sweep` machinery, JobPool
 *     parallelism, disk persistence, row leases and all — so a
 *     co-resident sweep process on the same store and the daemon
 *     never double-simulate a row. The caller gets a ticket to poll,
 *     or blocks on the fill up to a deadline.
 *
 * AdvisorServer wraps the service in a Unix-domain-socket front door
 * speaking the CRC-framed text protocol of serve_protocol.hpp. It
 * keeps only that request grammar: accept, connection threads,
 * bad-frame replies and shutdown belong to the shared FrameServer
 * (common/frame_server.hpp).
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/frame_server.hpp"
#include "common/stats.hpp"
#include "harness/exhaustive.hpp"
#include "harness/profile_db.hpp"
#include "harness/runner.hpp"
#include "harness/serve_protocol.hpp"

namespace ebm {

/** Objective a serving query optimizes (the three SD argmaxes). */
enum class ServeObjective : std::uint8_t { WS, FI, HS };

/** Wire name of @p o ("WS" / "FI" / "HS"). */
const char *serveObjectiveName(ServeObjective o);

/** Parse a wire objective token; nullopt on anything else. */
std::optional<ServeObjective> parseServeObjective(const std::string &s);

/** Cache-hit/miss advisory service over a Runner + DiskCache. */
class AdvisorService
{
  public:
    /**
     * Service knobs. Value-initialized defaults (no member
     * initializers: the constructor's `= Options()` default argument
     * must not need them before the enclosing class is complete).
     */
    struct Options
    {
        /** TLP ladder per sweep; empty = the standard 8-level ladder. */
        std::vector<std::uint32_t> levels;
        /** Worker threads inside one miss fill; 0 = defaultJobs(). */
        std::uint32_t fillJobs;
    };

    /** One objective's answer: the combo to run and its SD scores. */
    struct Choice
    {
        TlpCombo tlp;      ///< Warps/scheduler per app, canonical order.
        double ws = 0.0;   ///< Weighted speedup of this combo.
        double fi = 0.0;   ///< Fairness index of this combo.
        double hs = 0.0;   ///< Harmonic speedup of this combo.

        double
        score(ServeObjective o) const
        {
            switch (o) {
              case ServeObjective::FI: return fi;
              case ServeObjective::HS: return hs;
              default: return ws;
            }
        }
    };

    /** Where an answer came from (reported to clients / stats). */
    enum class Source : std::uint8_t {
        Memo,  ///< Previously assembled, one map lookup.
        Store, ///< Assembled from the disk cache on this request.
        Fresh, ///< Simulated by the fill thread for this request.
    };

    /** A fully computed answer for one (canonical) pair. */
    struct Answer
    {
        std::string pair;               ///< Canonical name "A_B", A<B.
        std::vector<std::string> apps;  ///< Canonical (sorted) order.
        Choice ws, fi, hs;              ///< Best combo per objective.
        std::vector<std::uint32_t> bestAloneTlp; ///< Per app.
        Source source = Source::Memo;

        const Choice &
        forObjective(ServeObjective o) const
        {
            switch (o) {
              case ServeObjective::FI: return fi;
              case ServeObjective::HS: return hs;
              default: return ws;
            }
        }
    };

    enum class State : std::uint8_t { Ready, Pending, Failed };

    /** Outcome of advise()/poll(). */
    struct QueryResult
    {
        State state = State::Failed;
        Answer answer;              ///< Valid when Ready.
        std::uint64_t ticket = 0;   ///< Valid when Pending.
        Error error{Errc::Internal, ""}; ///< Valid when Failed.
    };

    /** Serving counters + latency percentiles (the STATS verb). */
    struct Stats
    {
        std::uint64_t requests = 0;  ///< advise() calls.
        std::uint64_t hits = 0;      ///< Served from memo or store.
        std::uint64_t misses = 0;    ///< Needed a fill dispatch.
        std::uint64_t joined = 0;    ///< Deduped onto an in-flight fill.
        std::uint64_t inflight = 0;  ///< Fills queued or running now.
        std::uint64_t fillsDispatched = 0;
        std::uint64_t fillsCompleted = 0;
        std::uint64_t fillsFailed = 0;
        /** Warm-checkpoint forks served from the process-wide
         *  WarmStateCache during fills (a cold what-if query whose
         *  warmup prefix was already simulated starts from the stored
         *  fork instead of a cold boot). */
        std::uint64_t snapshotHits = 0;
        /** Warm-checkpoint captures computed during fills (first run
         *  of a shape, or the cache was disabled/evicted). */
        std::uint64_t snapshotMisses = 0;
        std::uint64_t latencySamples = 0; ///< Framed requests timed.
        double p50us = 0.0, p90us = 0.0, p99us = 0.0;
    };

    /**
     * @param runner shared-run runner whose fingerprint keys the store
     * @param cache  the loaded v3 store (hits) and fill sink (misses)
     */
    AdvisorService(const Runner &runner, DiskCache &cache,
                   Options opts = Options());
    ~AdvisorService();

    AdvisorService(const AdvisorService &) = delete;
    AdvisorService &operator=(const AdvisorService &) = delete;

    /**
     * Answer for the pair {a, b} (order-insensitive: the pair is
     * canonicalized by sorting, so ADVISE B A hits the same store
     * rows and memo entry as ADVISE A B).
     *
     * @param wait_ms on a miss, block up to this long for the fill;
     *                0 = return Pending immediately with a ticket
     */
    QueryResult advise(const std::string &a, const std::string &b,
                       std::uint32_t wait_ms = 0);

    /** Re-check a Pending ticket (Failed on an unknown ticket). */
    QueryResult poll(std::uint64_t ticket);

    /** Snapshot the serving counters. */
    Stats stats() const;

    /** Where the server records each framed request's service time. */
    LatencyHistogram &requestLatency() { return latency_; }

    /** Block until no fill is queued or running (tests, shutdown). */
    void drainFills();

  private:
    struct TicketState
    {
        std::string pair;            ///< Canonical pair name.
        State state = State::Pending;
        Error error{Errc::Internal, ""};
    };

    QueryResult adviseCanonical(const std::string &a,
                                const std::string &b,
                                std::uint32_t wait_ms);
    /** Probe-only assembly from memo/profiles/store. No simulation. */
    std::optional<Answer> tryAnswerFromStore(const Workload &wl);
    /** Build an Answer from a complete table + profiles. */
    Answer assemble(const Workload &wl, const ComboTable &table,
                    const std::vector<AppAloneProfile> &profs) const;
    void fillLoop();
    QueryResult readyResult(Answer answer) const;

    const Runner &runner_;
    DiskCache &cache_;
    Options opts_;

    mutable std::mutex mu_;
    std::condition_variable fillDone_;   ///< A ticket resolved.
    std::condition_variable fillQueued_; ///< Work for the fill thread.
    std::map<std::string, Answer> memo_;          ///< pair -> answer.
    std::map<std::string, std::uint64_t> inflight_; ///< pair -> ticket.
    std::map<std::uint64_t, TicketState> tickets_;
    std::deque<Workload> fillQueue_;     ///< Canonical pairs to fill.
    std::uint64_t nextTicket_ = 1;
    bool stopping_ = false;

    /**
     * Probe-side ProfileDb/Exhaustive, used only through their const
     * probe-only methods (profileCached/sweepCached) by concurrent
     * request threads: their memo maps are never populated, so every
     * probe goes to the DiskCache, which is internally synchronized.
     */
    const ProfileDb probeProfiles_;
    const Exhaustive probe_;

    /**
     * Fill-side ProfileDb/Exhaustive. All fills run on the single
     * fill thread (ProfileDb's memo map is not thread-safe); each
     * fill is internally parallel through the sweep's own JobPool.
     */
    ProfileDb profiles_;
    Exhaustive exhaustive_;
    std::thread fillThread_;

    // Counters (under mu_ except the histogram, which is lock-free).
    Stats counters_;
    LatencyHistogram latency_;
};

/** Unix-domain-socket front door for an AdvisorService. */
class AdvisorServer
{
  public:
    struct Options
    {
        std::string socketPath;  ///< Required: where to listen.
        /** Objective used when a request names none. */
        ServeObjective defaultObjective = ServeObjective::WS;
        /** Honour the SHUTDOWN verb (daemons yes, tests maybe not). */
        bool allowRemoteShutdown = true;
        /** Most apps accepted by one PAIR request. */
        std::uint32_t maxPairApps = 8;
        /** Longest WAIT a client may request, ms. */
        std::uint32_t maxWaitMs = 10 * 60 * 1000;
    };

    AdvisorServer(AdvisorService &service, Options opts);
    ~AdvisorServer() { stop(); }

    AdvisorServer(const AdvisorServer &) = delete;
    AdvisorServer &operator=(const AdvisorServer &) = delete;

    /** Bind the socket and start accepting. */
    Status start();

    /** Stop accepting, shut down live connections, join threads, and
     * unlink the socket file. */
    void stop();

    /** Block until a client's SHUTDOWN verb (or stop()). */
    void waitForShutdown() { frames_.waitForShutdown(); }

    bool shutdownRequested() const { return frames_.shutdownRequested(); }

    /**
     * Answer one request payload (exposed for tests: the wire layers
     * above and below this are exercised separately).
     */
    std::string handleRequest(const std::string &payload);

  private:
    std::string handleAdvise(const std::vector<std::string> &toks);
    std::string handlePair(const std::vector<std::string> &toks);
    std::string handlePoll(const std::vector<std::string> &toks);
    std::string handleStats();
    /**
     * Parse the trailing [OBJ <o>] [WAIT <ms>] options of a query.
     * @return error reply on malformed options, nullopt when parsed.
     */
    std::optional<std::string>
    parseQueryOpts(const std::vector<std::string> &toks,
                   std::size_t first, ServeObjective &obj,
                   std::uint32_t &wait_ms) const;

    AdvisorService &service_;
    Options opts_;
    /** start() bound the socket file, so stop() unlinks it. */
    bool bound_ = false;
    FrameServer frames_;
};

} // namespace ebm
