/**
 * @file
 * Lease client: the worker half of the lease fabric
 * (harness/coordinator.hpp has the protocol). A NetLeaseProvider
 * speaks the lease verbs as request/response RPCs over one connection
 * to a Coordinator, reached one of two ways:
 *
 *   - joinLocal(): the same-host coordinator of one store, on an
 *     abstract AF_UNIX socket named after the store's canonical path.
 *     This is the default: makeLeaseProvider joins it for every fill
 *     with a miss on a writable store, with no flag. The first
 *     process to find the name free binds it and serves in-process
 *     (the server lives inside that process's DiskCache); every
 *     process, the server's own included, then connects as a client.
 *     Results travel through the shared store file: publish() is the
 *     group-commit sync(), fetch() is refresh() then a validated get;
 *   - connect(): an ebm_coordinator daemon over TCP. The worker shares
 *     no file with it, so results are streamed as CRC-framed v3
 *     records (PUT) and probed in the coordinator's store (GET); the
 *     worker's own DiskCache is private scratch in this mode.
 *
 * Threading: the sweep's JobPool workers and every LeaseHeartbeater
 * tick share this one connection; RPCs are serialized under a mutex
 * (they are microseconds against rows that take milliseconds to
 * seconds — the coordinator's LatencyHistogram keeps the receipts).
 *
 * Failure policy: the fabric is an optimization, never a correctness
 * dependency. If the connection breaks — coordinator gone, RPC
 * timeout, garbled frame — the provider latches a degraded mode that
 * behaves like no coordination at all: every tryAcquire is granted
 * locally (epoch 0), peeks read Absent, TCP publishes fail quietly.
 * The sweep then computes everything itself, which is always correct,
 * merely not shared; and because real peers never see this worker's
 * leases again (its connection died with it), the coordinator orphans
 * them and peers take the rows over under bumped epochs.
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
        /** Per-RPC response deadline; zero = 4x the staleness
         * window (min 2s). A coordinator that cannot answer within
         * that is treated as gone (degraded mode). */
        std::chrono::milliseconds rpcTimeout{0};
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
    static std::unique_ptr<NetLeaseProvider>
    connect(const std::string &address);

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

    /** Has the connection been lost (standalone degrade latched)? */
    bool degraded() const;

    /** The staleness window the coordinator reported at HELLO. */
    std::chrono::milliseconds coordinatorStaleMs() const
    {
        return staleMs_;
    }

  private:
    /** Largest staleness window a HELLO reply may report: the
     * EBM_CLAIM_STALE_MS bound. */
    static constexpr std::uint64_t kMaxStaleMs = 3600000;

    NetLeaseProvider(UniqueFd fd, Options options, DiskCache *store);

    /** HELLO over a fresh connection; nullptr when refused. */
    static std::unique_ptr<NetLeaseProvider>
    handshake(UniqueFd fd, const Options &options, DiskCache *store,
              const std::string &peer);

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

    int timeoutMs() const;

    Options options_;
    /** The shared store file results travel through (joinLocal), or
     * null to stream them over the connection (connect). */
    DiskCache *const store_;
    std::chrono::milliseconds staleMs_{0};

    mutable std::mutex mu_;
    UniqueFd fd_;
    wire::FrameReader reader_;
    bool degraded_ = false;
    bool degradeWarned_ = false;
    /** Epochs of leases this instance currently holds. */
    std::unordered_map<std::string, std::uint64_t> owned_;
};

} // namespace ebm
