/**
 * @file
 * The lease layer the row-fill engine (harness/row_fill.hpp, behind
 * Exhaustive::sweep, ProfileDb::profile and runOnlineJobs) coordinates
 * through when several workers fill one cold store: who owns a row,
 * how ownership is kept alive, how a dead owner's row is taken over,
 * and how the row's result travels.
 *
 * One implementation holds the lease semantics: the Coordinator
 * (harness/coordinator.hpp), spoken to by a NetLeaseProvider
 * (harness/lease_net.hpp). Every process with a cold fill on a
 * writable store connects to a coordinator on a local AF_UNIX socket
 * named after the store's canonical path. When nothing answers, the
 * process binds that name and serves in-process for as long as its
 * DiskCache lives — winning bind() is the election. Results travel
 * through the shared store file (publish = group-commit sync, fetch =
 * refresh + validated get), so each row is appended once, by its
 * owner. Pointing processes at one store is all it takes to share its
 * fills.
 *
 * The merge invariant: compact() sorts by key and the simulation is
 * deterministic, so any mix of workers, takeovers, and duplicate
 * computes compacts to the same bytes a serial fill would have
 * produced.
 *
 * Liveness is part of the protocol: a worker that dies drops its
 * connection, which orphans its leases at once, and a worker that
 * hangs stops heartbeating, so its leases go stale after the lease
 * window. Either way a surviving peer takes the rows over.
 *
 * The window belongs to the coordinator: its Options, else the
 * EBM_CLAIM_STALE_MS of the process that started it. Peers pace
 * their heartbeats and RPC deadlines from the window reported at
 * HELLO, never from their own settings.
 *
 * A LeaseProvider is an *optimization, never a correctness
 * dependency*: every verb may fail (fenced, disconnected, degraded)
 * and the caller falls back to computing locally — duplicates are
 * byte-identical. A coordinator killed outright leaves its peers
 * standalone for the rest of their sweep.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/store_format.hpp"

namespace ebm {

class DiskCache;

/** Row-lease coordination plus result hand-off for one store. */
class LeaseProvider
{
  public:
    /** A waiter's view of another worker's lease on a key. */
    enum class State : std::uint8_t {
        Absent,  ///< No lease (result durable, or owner takeover race).
        Active,  ///< A live owner is computing the row.
        Stale,   ///< The owner stopped heartbeating: take over.
        Skipped, ///< The owner exhausted retries: replicate the skip.
    };

    virtual ~LeaseProvider() = default;

    /** Atomically lease @p key under a fresh fencing epoch. @return
     * true = this worker owns the row and must compute it. */
    virtual bool tryAcquire(const std::string &key) = 0;

    /** Keep the owned lease alive. @return false when fenced — a peer
     * took the row over and this worker's result is a duplicate. */
    virtual bool heartbeat(const std::string &key) = 0;

    /** The row's result is durable (publish() succeeded): drop the
     * lease so waiters fall through to the result. @return false when
     * fenced (the newer owner's lease was left untouched). */
    virtual bool release(const std::string &key) = 0;

    /** Retries exhausted: record a durable skip so every waiter
     * replicates it, then drop the lease. @return false when fenced. */
    virtual bool markSkipped(const std::string &key) = 0;

    /** Poll another worker's lease on @p key. */
    virtual State peek(const std::string &key) = 0;

    /** Take over a stale lease under a bumped fencing epoch. @return
     * true = this worker owns the row now. */
    virtual bool breakStale(const std::string &key) = 0;

    /** The fencing epoch this instance holds @p key under; 0 when it
     * does not own the key. Epochs past 1 mean the row changed hands
     * and are echoed into the store header (noteFencingEpoch). */
    virtual std::uint64_t ownedEpoch(const std::string &key) const = 0;

    /**
     * Make the owned row's result durable where waiting peers will
     * find it: the caller already put() it into the shared store
     * file, and this forces the covering group commit. Call before
     * release(). @return false when the result could not be made
     * durable for peers (it is still good locally).
     */
    virtual bool publish(const std::string &key) = 0;

    /**
     * Probe for a peer's durable result for @p key in the shared
     * store, after folding in peer appends. Validated like
     * DiskCache::getValidated — finite doubles of @p shape, anything
     * else is a miss — but silently: a re-probe of the caller's row,
     * whose first probe already warned.
     */
    virtual std::optional<std::vector<double>>
    fetch(const std::string &key, RecordShape shape) = 0;

    /** The lease window this provider's leases are judged against:
     * a lease unrenewed for longer is taken over. */
    virtual std::chrono::milliseconds window() const = 0;
};

/**
 * Pick the lease provider for one fill against @p cache: nullptr for
 * a read-only @p cache (it cannot append a row), else the elected
 * same-host coordinator for @p cache's store (joined, or started
 * inside @p cache).
 *
 * Fills call this only once their probe pass found a miss, so a warm
 * fill never connects or binds. When no coordinator can be reached
 * the result is nullptr with a warning: the fill computes everything
 * locally, which is always correct, merely not shared.
 */
std::unique_ptr<LeaseProvider> makeLeaseProvider(DiskCache &cache);

/**
 * Periodic in-run heartbeat for one held lease (RAII): a background
 * thread renews it every quarter of the provider's window() (at least
 * 10 ms), so a row longer than the window never looks abandoned. A
 * tick that finds the lease fenced (taken over after a stall) stops
 * and latches fenced(); the owner then demotes its result to a
 * duplicate compute.
 */
class LeaseHeartbeater
{
  public:
    /** Start heartbeating @p key on @p lease. Either may be null /
     * empty — then this is an inert object (the unleased path). */
    LeaseHeartbeater(LeaseProvider *lease, std::string key);
    ~LeaseHeartbeater();

    LeaseHeartbeater(const LeaseHeartbeater &) = delete;
    LeaseHeartbeater &operator=(const LeaseHeartbeater &) = delete;

    /** Did a heartbeat discover the lease was taken over? */
    bool fenced() const
    {
        return fenced_.load(std::memory_order_relaxed);
    }

  private:
    void run();

    LeaseProvider *lease_;
    std::string key_;
    std::atomic<bool> fenced_{false};
    bool stop_ = false;
    std::mutex mu_;
    std::condition_variable cv_;
    std::thread thread_;
};

} // namespace ebm
