#include "harness/coordinator.hpp"

#include <chrono>
#include <sstream>

#include "common/config.hpp"
#include "common/runtime_config.hpp"
#include "common/wire.hpp"
#include "harness/disk_cache.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {

namespace {

/** The key part of a "<VERB> <key>" payload (keys are '\n'-free and
 * may in principle hold any other byte, so: rest of line, verbatim). */
std::string
keyAfter(const std::string &payload, std::size_t verb_len)
{
    if (payload.size() <= verb_len + 1)
        return {};
    return payload.substr(verb_len + 1);
}

/** Parse "<VERB> <epoch> <key>"; false when the epoch is malformed. */
bool
epochAndKey(const std::string &payload, std::size_t verb_len,
            std::uint64_t &epoch, std::string &key)
{
    const std::size_t start = verb_len + 1;
    if (payload.size() <= start)
        return false;
    const std::size_t sp = payload.find(' ', start);
    if (sp == std::string::npos || sp + 1 >= payload.size())
        return false;
    key = payload.substr(sp + 1);
    return parseUint(payload.substr(start, sp - start).c_str(), epoch);
}

} // namespace

std::string
Coordinator::Stats::summaryLine() const
{
    std::ostringstream out;
    out << "coordinator: conns=" << connections << " rpcs=" << rpcs
        << " granted=" << acquiresGranted
        << " denied=" << acquiresDenied << " takeovers=" << takeovers
        << " fenced=" << fencedOps << " orphaned=" << orphanedLeases
        << " skips=" << skipsMarked << " rpc_p50_us=" << rpcP50Us
        << " rpc_p99_us=" << rpcP99Us;
    return out.str();
}

Coordinator::Coordinator(DiskCache &cache, Options options)
    : cache_(cache), options_(std::move(options)),
      server_([this](const std::string &payload,
                     std::uint64_t conn) { return handle(payload, conn); },
              rpcLatency_,
              [this](std::uint64_t conn) {
                  // EOF, error, or stop(): whatever this worker still
                  // held is dead weight — orphan it so peers take the
                  // rows over immediately instead of waiting out the
                  // staleness window.
                  orphanConnection(conn);
              })
{
    if (options_.staleThreshold.count() <= 0)
        options_.staleThreshold = RuntimeConfig::get().claimStale;
}

Status
Coordinator::start(UniqueFd listener)
{
    return server_.start(std::move(listener), true);
}

Coordinator::Stats
Coordinator::stats() const
{
    Stats s;
    {
        std::lock_guard<std::mutex> lk(mu_);
        s = counters_;
    }
    s.connections = server_.connections();
    s.rpcs = rpcLatency_.count();
    s.rpcP50Us = rpcLatency_.percentile(0.50) / 1000.0;
    s.rpcP99Us = rpcLatency_.percentile(0.99) / 1000.0;
    return s;
}

void
Coordinator::orphanConnection(std::uint64_t conn_id)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &entry : leases_) {
        if (entry.second.conn == conn_id && !entry.second.orphaned) {
            entry.second.orphaned = true;
            ++counters_.orphanedLeases;
        }
    }
}

std::string
Coordinator::handle(const std::string &payload, std::uint64_t conn_id)
{
    if (payload.rfind("ACQ ", 0) == 0)
        return handleAcquire(keyAfter(payload, 3), conn_id);
    if (payload.rfind("PEEK ", 0) == 0)
        return handlePeek(keyAfter(payload, 4));
    if (payload.rfind("BREAK ", 0) == 0)
        return handleBreak(keyAfter(payload, 5), conn_id);
    const std::string verb = payload.substr(0, payload.find(' '));
    if (verb == "HB" || verb == "REL" || verb == "SKIPMARK") {
        std::uint64_t epoch = 0;
        std::string key;
        if (!epochAndKey(payload, verb.size(), epoch, key))
            return "ERROR bad-request";
        return applyEpochVerb(verb, key, epoch) ? "OK" : "FENCED";
    }
    if (payload.rfind("HELLO ", 0) == 0) {
        const auto tokens = wire::splitTokens(payload);
        if (tokens.size() != 3)
            return "ERROR bad-request";
        if (tokens[1] != DiskCache::machineFingerprint()) {
            return "ERROR incompatible float-ABI fingerprint (" +
                   tokens[1] + " vs " +
                   DiskCache::machineFingerprint() + ")";
        }
        if (tokens[2] != std::to_string(kAppCatalogVersion)) {
            return "ERROR incompatible app-catalog version (" +
                   tokens[2] + " vs " +
                   std::to_string(kAppCatalogVersion) + ")";
        }
        return "OK " + std::to_string(staleThreshold().count());
    }
    if (payload == "PING")
        return "OK";
    if (payload == "STATS") {
        return "OK " + stats().summaryLine() + " window_ms=" +
               std::to_string(staleThreshold().count()) + " " +
               RuntimeConfig::get().describe();
    }
    return "ERROR bad-request";
}

std::string
Coordinator::handleAcquire(const std::string &key,
                           std::uint64_t conn_id)
{
    if (key.empty())
        return "ERROR bad-request";
    const auto now = std::chrono::steady_clock::now();
    std::uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto skip = skips_.find(key);
        if (skip != skips_.end()) {
            if (now - skip->second <= staleThreshold()) {
                ++counters_.acquiresDenied;
                return "SKIP";
            }
            // Expired marker from an old sweep: drop it so the row is
            // retried (a failed combination is never persisted).
            skips_.erase(skip);
        }
        if (leases_.count(key) != 0) {
            // Someone holds it — even a stale holder: waiters go
            // through PEEK/BREAK, which re-checks staleness.
            ++counters_.acquiresDenied;
            return "HELD";
        }
        epoch = ++epochs_[key];
        leases_[key] = Lease{epoch, now, conn_id, false};
        ++counters_.acquiresGranted;
    }
    // Epochs past the first mean the row changed hands at some point:
    // echo into the store header (cleared again by compact()), as the
    // row-fill engine also does worker-side.
    if (epoch > 1)
        cache_.noteFencingEpoch(epoch);
    return "OK " + std::to_string(epoch);
}

std::string
Coordinator::handleBreak(const std::string &key, std::uint64_t conn_id)
{
    if (key.empty())
        return "ERROR bad-request";
    const auto now = std::chrono::steady_clock::now();
    std::uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = leases_.find(key);
        if (it == leases_.end())
            return "DENIED"; // Vanished: owner finished; re-probe.
        const bool stale = it->second.orphaned ||
                           now - it->second.beat > staleThreshold();
        if (!stale)
            return "DENIED";
        epoch = ++epochs_[key];
        it->second = Lease{epoch, now, conn_id, false};
        ++counters_.takeovers;
    }
    if (epoch > 1)
        cache_.noteFencingEpoch(epoch);
    return "OK " + std::to_string(epoch);
}

std::string
Coordinator::handlePeek(const std::string &key)
{
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    const auto skip = skips_.find(key);
    if (skip != skips_.end()) {
        if (now - skip->second <= staleThreshold())
            return "SKIP";
        skips_.erase(skip);
    }
    const auto it = leases_.find(key);
    if (it == leases_.end())
        return "ABSENT";
    if (it->second.orphaned ||
        now - it->second.beat > staleThreshold())
        return "STALE";
    return "ACTIVE";
}

bool
Coordinator::applyEpochVerb(const std::string &verb, const std::string &key,
                            std::uint64_t epoch)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = leases_.find(key);
    if (it == leases_.end() || it->second.epoch != epoch) {
        ++counters_.fencedOps;
        return false;
    }
    if (verb == "HB") {
        it->second.beat = std::chrono::steady_clock::now();
        it->second.orphaned = false;
        return true;
    }
    if (verb == "SKIPMARK") {
        // Marker first, lease second, like markSkipped(): a waiter
        // that sees the lease vanish must already see why.
        skips_[key] = std::chrono::steady_clock::now();
        ++counters_.skipsMarked;
    }
    leases_.erase(it);
    return true;
}

} // namespace ebm
