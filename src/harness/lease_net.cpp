#include "harness/lease_net.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <thread>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/runtime_config.hpp"
#include "harness/coordinator.hpp"
#include "harness/disk_cache.hpp"
#include "harness/store_format.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {

std::string
localSocketName(const std::string &store_path)
{
    // Canonicalize through the directory (the store file itself may
    // not exist yet), so every spelling of one store's path meets at
    // one name. The name is a hash, which fits any sun_path.
    const std::size_t slash = store_path.rfind('/');
    const std::size_t base = slash == std::string::npos ? 0 : slash + 1;
    const std::string dir = base == 0 ? "." : store_path.substr(0, base);
    std::string canonical = store_path;
    char resolved[PATH_MAX];
    if (::realpath(dir.c_str(), resolved) != nullptr)
        canonical = std::string(resolved) + "/" + store_path.substr(base);
    // FNV-1a of the path: a frame checksum with no values.
    const std::uint64_t h = storefmt::entryChecksum(canonical, {});
    char name[32];
    std::snprintf(name, sizeof name, "ebm-lease-%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(1, '\0') + name;
}

NetLeaseProvider::NetLeaseProvider(UniqueFd fd, DiskCache &store)
    : store_(store), fd_(std::move(fd))
{
}

std::unique_ptr<NetLeaseProvider>
NetLeaseProvider::handshake(UniqueFd fd, DiskCache &store)
{
    auto provider = std::unique_ptr<NetLeaseProvider>(
        new NetLeaseProvider(std::move(fd), store));
    // Handshake before any lease verb: a worker whose doubles don't
    // round-trip byte-identically with the coordinator's store (or
    // whose app catalog disagrees) must not contribute records.
    std::lock_guard<std::mutex> lk(provider->mu_);
    const auto reply = provider->rpc(
        "HELLO " + DiskCache::machineFingerprint() + " " +
        std::to_string(kAppCatalogVersion));
    // The reply is "OK <window ms>", the window this peer's heartbeats
    // and deadlines are paced from; anything else — an error, no
    // window, a zero, a sign, an overflow — refuses the handshake.
    const auto tokens =
        reply ? wire::splitTokens(*reply) : std::vector<std::string>{};
    std::uint64_t window_ms = 0;
    const bool ok = tokens.size() == 2 && tokens[0] == "OK" &&
                    parseUint(tokens[1].c_str(), window_ms) &&
                    window_ms >= 1 && window_ms <= RuntimeConfig::kMaxWindowMs;
    if (!ok) {
        warn("NetLeaseProvider: local coordinator for " + store.path() +
             " refused the handshake" +
             (reply ? ": " + *reply : std::string()));
        return nullptr;
    }
    provider->window_ = std::chrono::milliseconds(window_ms);
    return provider;
}

std::unique_ptr<NetLeaseProvider>
NetLeaseProvider::joinLocal(DiskCache &cache)
{
    const std::string name = localSocketName(cache.path());
    // A loser of a simultaneous election retries its connect until
    // the winner is listening; 50 rounds of 20 ms bound the wait.
    constexpr int kRounds = 50;
    for (int round = 0; round < kRounds; ++round) {
        auto conn = netConnectUnix(name);
        if (conn) {
            return handshake(std::move(conn.value()), cache);
        }
        // Nothing answers: stand for election. bind() fails while any
        // other socket holds the name, so at most one process wins.
        auto listener = netListenUnix(name);
        if (listener) {
            auto server =
                std::make_unique<Coordinator>(cache, Coordinator::Options{});
            if (server->start(std::move(listener.value())))
                cache.adoptLeaseServer(std::move(server));
            continue;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return nullptr;
}

std::optional<std::string>
NetLeaseProvider::rpc(const std::string &request)
{
    if (degraded_)
        return std::nullopt;
    // The deadline is four lease windows, at least 2 s (before HELLO
    // reports the window, just 2 s).
    const auto deadline = std::max<std::chrono::milliseconds::rep>(
        4 * window_.count(), 2000);
    std::string reply;
    if (wire::sendFrame(fd_.get(), request) &&
        wire::recvFrame(fd_.get(), reader_, reply,
                        static_cast<int>(deadline)))
        return reply;
    latchDegraded();
    return std::nullopt;
}

void
NetLeaseProvider::latchDegraded()
{
    degraded_ = true;
    fd_.reset();
    if (!degradeWarned_) {
        degradeWarned_ = true;
        warn("NetLeaseProvider: lost the coordinator connection; "
             "this sweep degrades to standalone (results stay "
             "local, peers take over our leased rows)");
    }
}

bool
NetLeaseProvider::grantFromReply(const std::string &key,
                                 const std::optional<std::string> &reply)
{
    if (reply && reply->rfind("OK", 0) != 0)
        return false; // HELD or SKIP.
    std::uint64_t epoch = 0;
    if (reply && (reply->rfind("OK ", 0) != 0 ||
                  !parseUint(reply->c_str() + 3, epoch) || epoch == 0)) {
        // A grant without a usable epoch is a garbled reply: holding
        // the row under epoch 0 would never renew or release it.
        latchDegraded();
        epoch = 0;
    }
    // Degraded (now or before): compute locally. Epoch 0 keeps
    // noteEpoch quiet and release/heartbeat local-only.
    owned_[key] = epoch;
    return true;
}

bool
NetLeaseProvider::tryAcquire(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    return grantFromReply(key, rpc("ACQ " + key));
}

bool
NetLeaseProvider::heartbeat(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = owned_.find(key);
    if (it == owned_.end())
        return false;
    if (degraded_ || it->second == 0)
        return true; // Local-only lease: nothing to renew.
    const auto reply =
        rpc("HB " + std::to_string(it->second) + " " + key);
    if (!reply)
        return true; // Connection just died: keep computing.
    if (*reply == "OK")
        return true;
    owned_.erase(key); // Fenced: the row is not ours to touch.
    return false;
}

bool
NetLeaseProvider::release(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = owned_.find(key);
    if (it == owned_.end())
        return false;
    const std::uint64_t epoch = it->second;
    owned_.erase(it);
    if (degraded_ || epoch == 0)
        return true;
    const auto reply =
        rpc("REL " + std::to_string(epoch) + " " + key);
    if (!reply)
        return true; // Connection died; the coordinator orphans it.
    if (*reply == "OK")
        return true;
    warn("NetLeaseProvider: fenced out of " + key +
         "; leaving the newer lease in place");
    return false;
}

bool
NetLeaseProvider::markSkipped(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = owned_.find(key);
    if (it == owned_.end())
        return false;
    const std::uint64_t epoch = it->second;
    owned_.erase(it);
    if (degraded_ || epoch == 0)
        return true;
    const auto reply =
        rpc("SKIPMARK " + std::to_string(epoch) + " " + key);
    return reply && *reply == "OK";
}

LeaseProvider::State
NetLeaseProvider::peek(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto reply = rpc("PEEK " + key);
    if (!reply)
        return State::Absent; // Degraded: claim it, compute locally.
    if (*reply == "ACTIVE")
        return State::Active;
    if (*reply == "STALE")
        return State::Stale;
    if (*reply == "SKIP")
        return State::Skipped;
    return State::Absent;
}

bool
NetLeaseProvider::breakStale(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    return grantFromReply(key, rpc("BREAK " + key));
}

std::uint64_t
NetLeaseProvider::ownedEpoch(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = owned_.find(key);
    return it == owned_.end() ? 0 : it->second;
}

bool
NetLeaseProvider::publish(const std::string &)
{
    // The caller already put() the entry into the shared store; group
    // commit may return before the covering batch lands, and peers
    // read "lease gone" as "result durable" — so force the flush
    // here, before the caller drops the lease.
    store_.sync();
    return true;
}

std::optional<std::vector<double>>
NetLeaseProvider::fetch(const std::string &key, RecordShape shape)
{
    store_.refresh();
    auto values = store_.get(key);
    // DiskCache::getValidated's contract, without its warning: the
    // caller's own probe already reported a bad record, so a re-probe
    // just misses (recompute), never crashes.
    if (!values || !shape.accepts(*values))
        return std::nullopt;
    return values;
}

bool
NetLeaseProvider::degraded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return degraded_;
}

} // namespace ebm
