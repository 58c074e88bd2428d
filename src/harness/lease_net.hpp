/**
 * @file
 * Lease client: the worker half of the lease fabric. A
 * NetLeaseProvider speaks the lease verbs (harness/coordinator.hpp
 * has the protocol) as RPCs over one connection to a Coordinator,
 * reached as lease_provider.hpp describes: joinLocal() for the
 * same-host coordinator of a store, where results travel through the
 * shared file (publish() is the group-commit sync(), fetch() is
 * refresh() then a validated get), or connect() for an
 * ebm_coordinator over TCP, where records are streamed (PUT) and
 * probed (GET) and the worker's own DiskCache is private scratch.
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
 * locally (epoch 0), peeks read Absent, TCP publishes fail quietly.
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

/** Row leases + record streaming over one coordinator connection. */
class NetLeaseProvider final : public LeaseProvider
{
  public:
    struct Options
    {
        /** Connect retries (the worker may start before the
         * coordinator finishes binding) and their spacing. */
        std::uint32_t connectAttempts = 40;
        std::chrono::milliseconds connectBackoff{250};
    };

    /**
     * Connect to "host:port" and handshake (HELLO verifies the
     * float-ABI fingerprint and app-catalog version — a foreign
     * machine's records must never reach the store). @return nullptr
     * when the address is malformed, the coordinator is unreachable
     * after the retry budget, or the handshake is refused.
     */
    static std::unique_ptr<NetLeaseProvider>
    connect(const std::string &address, const Options &options);

    /**
     * Join the same-host coordinator for @p cache's store, standing
     * for election when nothing answers: bind() on the store's
     * socket name succeeds for exactly one process, which starts a
     * Coordinator inside @p cache (DiskCache::adoptLeaseServer) and
     * then connects to it like any peer. @return nullptr when no
     * coordinator could be joined or started.
     */
    static std::unique_ptr<NetLeaseProvider> joinLocal(DiskCache &cache);

    bool tryAcquire(const std::string &key) override;
    bool heartbeat(const std::string &key) override;
    bool release(const std::string &key) override;
    bool markSkipped(const std::string &key) override;
    State peek(const std::string &key) override;
    bool breakStale(const std::string &key) override;
    std::uint64_t ownedEpoch(const std::string &key) const override;
    bool publish(const std::string &key,
                 const std::vector<double> &values) override;
    std::optional<std::vector<double>>
    fetch(const std::string &key, std::size_t expected) override;
    const char *kind() const override
    {
        return store_ != nullptr ? "local" : "net";
    }
    /** The lease window the coordinator reported at HELLO. */
    std::chrono::milliseconds window() const override { return window_; }

    /** Has the connection been lost (standalone degrade latched)? */
    bool degraded() const;

  private:
    NetLeaseProvider(UniqueFd fd, DiskCache *store);

    /** HELLO over a fresh connection; nullptr when refused. */
    static std::unique_ptr<NetLeaseProvider>
    handshake(UniqueFd fd, DiskCache *store, const std::string &peer);

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

    /** The shared store file results travel through (joinLocal), or
     * null to stream them over the connection (connect). */
    DiskCache *const store_;
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
