/**
 * @file
 * Lease client: the worker half of the lease fabric. A
 * NetLeaseProvider speaks the lease verbs (harness/coordinator.hpp
 * has the protocol) as RPCs over one connection to the same-host
 * Coordinator of a store, reached through joinLocal() as
 * lease_provider.hpp describes. Results travel through the shared
 * store file: publish() is the group-commit sync(), fetch() is
 * refresh() then a validated get.
 *
 * Lease window: the HELLO reply carries the window the coordinator
 * judges leases against, in [1, 3,600,000] ms; a reply without one
 * refuses the handshake. window() returns it, LeaseHeartbeater renews
 * every quarter of it, and the RPC deadline is four windows (at least
 * 2 s; a coordinator that misses it is treated as gone). The peer's
 * own EBM_CLAIM_STALE_MS plays no part.
 *
 * Threading: the sweep's JobPool workers and every LeaseHeartbeater
 * tick share the connection; RPCs are serialized under a mutex (they
 * are microseconds against rows of milliseconds to seconds).
 *
 * Failure policy: if the connection breaks — coordinator gone, RPC
 * timeout, garbled frame — the provider latches a degraded mode that
 * behaves like no coordination at all: every tryAcquire is granted
 * locally (epoch 0), peeks read Absent.
 * The sweep computes everything itself, which is always correct,
 * and the coordinator orphans the dead connection's leases, so peers
 * take those rows over under bumped epochs.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/net.hpp"
#include "common/wire.hpp"
#include "harness/lease_provider.hpp"

namespace ebm {

/**
 * The abstract AF_UNIX name (leading '\0') of the same-host
 * coordinator for the store at @p store_path: every spelling of one
 * store's path meets at one name.
 */
std::string localSocketName(const std::string &store_path);

/** Row leases over one connection to a store's same-host coordinator. */
class NetLeaseProvider final : public LeaseProvider
{
  public:
    /**
     * Join the same-host coordinator for @p cache's store, standing
     * for election when nothing answers: bind() on the store's
     * socket name succeeds for exactly one process, which starts a
     * Coordinator inside @p cache (DiskCache::adoptLeaseServer) and
     * then connects to it like any peer. The HELLO handshake verifies
     * the float-ABI fingerprint and app-catalog version: another
     * build on this host may open the same store, and its records
     * must never reach it. @return nullptr when no coordinator could
     * be joined or started, or the handshake is refused.
     */
    static std::unique_ptr<NetLeaseProvider> joinLocal(DiskCache &cache);

    bool tryAcquire(const std::string &key) override;
    bool heartbeat(const std::string &key) override;
    bool release(const std::string &key) override;
    bool markSkipped(const std::string &key) override;
    State peek(const std::string &key) override;
    bool breakStale(const std::string &key) override;
    std::uint64_t ownedEpoch(const std::string &key) const override;
    bool publish(const std::string &key) override;
    std::optional<std::vector<double>>
    fetch(const std::string &key, RecordShape shape) override;
    /** The lease window the coordinator reported at HELLO. */
    std::chrono::milliseconds window() const override { return window_; }

    /** Has the connection been lost (standalone degrade latched)? */
    bool degraded() const;

  private:
    NetLeaseProvider(UniqueFd fd, DiskCache &store);

    /** HELLO over a fresh connection; nullptr when refused. */
    static std::unique_ptr<NetLeaseProvider>
    handshake(UniqueFd fd, DiskCache &store);

    /** One serialized request/response exchange. Returns std::nullopt
     * (and latches degraded mode) on any transport failure. */
    std::optional<std::string> rpc(const std::string &request);
    /** Drop the connection and serve standalone from now on. */
    void latchDegraded();
    /** Record an ACQ/BREAK reply: "OK <epoch>" grants the row under
     * that epoch; no reply, or an OK without an epoch >= 1 (which
     * latches degraded mode), grants it locally; anything else is a
     * refusal. Expects mu_ held. */
    bool grantFromReply(const std::string &key,
                        const std::optional<std::string> &reply);

    /** The shared store file results travel through. */
    DiskCache &store_;
    std::chrono::milliseconds window_{0};

    mutable std::mutex mu_;
    UniqueFd fd_;
    wire::FrameReader reader_;
    bool degraded_ = false;
    bool degradeWarned_ = false;
    /** Epochs of leases this instance currently holds. */
    std::unordered_map<std::string, std::uint64_t> owned_;
};

} // namespace ebm
