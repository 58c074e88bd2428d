#include "harness/coordinator.hpp"

#include <chrono>
#include <sstream>

#include "common/log.hpp"
#include "common/wire.hpp"
#include "harness/disk_cache.hpp"
#include "harness/lease_provider.hpp"
#include "harness/store_format.hpp"
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
    epoch = 0;
    for (std::size_t i = start; i < sp; ++i) {
        const char c = payload[i];
        if (c < '0' || c > '9')
            return false;
        epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
    }
    key = payload.substr(sp + 1);
    return true;
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
        << " records=" << recordsCommitted
        << " record_bytes=" << recordBytes << " hits=" << fetchHits
        << " misses=" << fetchMisses << " skips=" << skipsMarked
        << " bad_frames=" << badFrames << " rpc_p50_us=" << rpcP50Us
        << " rpc_p99_us=" << rpcP99Us;
    return out.str();
}

Coordinator::Coordinator(DiskCache &cache, Options options)
    : cache_(cache), options_(std::move(options))
{
}

Coordinator::~Coordinator() { stop(); }

std::chrono::milliseconds
Coordinator::staleThreshold() const
{
    return options_.staleThreshold.count() > 0
               ? options_.staleThreshold
               : leaseStaleThreshold();
}

Status
Coordinator::bind()
{
    if (listener_.valid())
        return Status::success();
    auto fd = netListenTcp(options_.host, options_.port);
    if (!fd)
        return fd.error();
    listener_ = std::move(fd.value());
    port_ = netLocalPort(listener_.get());
    return Status::success();
}

Status
Coordinator::start(UniqueFd listener)
{
    if (started_ || listener_.valid())
        return Error{Errc::InvalidArgument,
                     "Coordinator: already bound"};
    listener_ = std::move(listener);
    local_ = true;
    return start();
}

Status
Coordinator::start()
{
    if (started_)
        return Status::success();
    if (Status st = bind(); !st)
        return st;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        stopping_ = false;
    }
    acceptThread_ = std::thread([this] { acceptLoop(); });
    started_ = true;
    return Status::success();
}

void
Coordinator::stop()
{
    {
        std::lock_guard<std::mutex> lk(connMu_);
        if (stopping_ && !started_ && !listener_.valid())
            return;
        stopping_ = true;
        // Unblock connection threads stuck in recv: a reader sees
        // EOF/error and falls out of its loop.
        for (const int fd : openFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    shutdownCv_.notify_all();
    // close() alone does not wake a thread blocked in accept();
    // shutdown() on the listening socket does (accept fails with
    // EINVAL). Only close the fd after the loop has exited, so the
    // number cannot be reused under a still-running accept call.
    if (listener_.valid())
        ::shutdown(listener_.get(), SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.reset();
    started_ = false;
    std::unordered_map<std::uint64_t, std::thread> conns;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        conns.swap(connThreads_);
        finished_.clear();
    }
    for (auto &entry : conns)
        entry.second.join();
}

void
Coordinator::retire()
{
    // Stop accepting first: shutdown() wakes the accept thread, and
    // closing the listener frees its name, so a process that starts
    // filling this store from now on elects a new server instead of
    // queueing on a dying one.
    if (listener_.valid())
        ::shutdown(listener_.get(), SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.reset();
    {
        std::unique_lock<std::mutex> lk(connMu_);
        shutdownCv_.wait_for(lk, staleThreshold(),
                             [this] { return openFds_.empty(); });
    }
    stop();
}

void
Coordinator::reapFinishedLocked()
{
    // A finished connection thread only has its return left to run,
    // so these joins are immediate. Without them a long-lived server
    // would keep one dead thread per connection ever served.
    for (const std::uint64_t id : finished_) {
        const auto it = connThreads_.find(id);
        if (it == connThreads_.end())
            continue;
        it->second.join();
        connThreads_.erase(it);
    }
    finished_.clear();
}

std::string
Coordinator::address() const
{
    return (options_.host.empty() ? std::string("127.0.0.1")
                                  : options_.host) +
           ":" + std::to_string(port_);
}

bool
Coordinator::shutdownRequested() const
{
    std::lock_guard<std::mutex> lk(connMu_);
    return shutdownRequested_ || stopping_;
}

void
Coordinator::waitForShutdown()
{
    std::unique_lock<std::mutex> lk(connMu_);
    shutdownCv_.wait(lk, [this] {
        return shutdownRequested_ || stopping_;
    });
}

Coordinator::Stats
Coordinator::stats() const
{
    Stats s;
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        s = counters_;
    }
    s.rpcP50Us = rpcLatency_.percentile(0.50) / 1000.0;
    s.rpcP99Us = rpcLatency_.percentile(0.99) / 1000.0;
    return s;
}

void
Coordinator::acceptLoop()
{
    for (;;) {
        const int fd = netAccept(listener_.get());
        if (fd < 0)
            return; // Listener closed (stop()) or errored.
        if (local_ && !netPeerIsSameUser(fd)) {
            // The same-host socket is reachable by every local user;
            // only this user's processes may lease its rows.
            ::close(fd);
            continue;
        }
        std::uint64_t conn_id = 0;
        {
            std::lock_guard<std::mutex> lk(connMu_);
            if (stopping_) {
                ::close(fd);
                return;
            }
            reapFinishedLocked();
            conn_id = nextConnId_++;
            openFds_.insert(fd);
            {
                // Counted before the first reply can go out, so a
                // connected peer is always in stats().
                std::lock_guard<std::mutex> slk(statsMu_);
                ++counters_.connections;
            }
            connThreads_.emplace(
                conn_id,
                std::thread([this, fd, conn_id] {
                    serveConnection(fd, conn_id);
                }));
        }
    }
}

void
Coordinator::serveConnection(int fd, std::uint64_t conn_id)
{
    wire::FrameReader reader;
    std::string payload;
    while (wire::recvFrame(fd, reader, payload)) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::string response = handle(payload, conn_id);
        rpcLatency_.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
        {
            std::lock_guard<std::mutex> lk(statsMu_);
            ++counters_.rpcs;
        }
        if (!wire::sendFrame(fd, response))
            break;
    }
    // EOF, error, or stop(): whatever this worker still held is dead
    // weight — orphan it so peers take the rows over immediately
    // instead of waiting out the staleness window.
    orphanConnection(conn_id);
    {
        std::lock_guard<std::mutex> lk(connMu_);
        openFds_.erase(fd);
        ::close(fd);
        finished_.push_back(conn_id);
    }
    shutdownCv_.notify_all();
}

void
Coordinator::orphanConnection(std::uint64_t conn_id)
{
    std::size_t orphaned = 0;
    {
        std::lock_guard<std::mutex> lk(leaseMu_);
        for (auto &entry : leases_) {
            if (entry.second.conn == conn_id &&
                !entry.second.orphaned) {
                entry.second.orphaned = true;
                ++orphaned;
            }
        }
    }
    if (orphaned > 0) {
        std::lock_guard<std::mutex> lk(statsMu_);
        counters_.orphanedLeases += orphaned;
    }
}

std::string
Coordinator::handle(const std::string &payload, std::uint64_t conn_id)
{
    if (payload.rfind("PUT\n", 0) == 0)
        return handlePut(payload);
    if (payload.rfind("ACQ ", 0) == 0)
        return handleAcquire(keyAfter(payload, 3), conn_id);
    if (payload.rfind("PEEK ", 0) == 0)
        return handlePeek(keyAfter(payload, 4));
    if (payload.rfind("GET ", 0) == 0)
        return handleGet(keyAfter(payload, 3));
    if (payload.rfind("BREAK ", 0) == 0)
        return handleBreak(keyAfter(payload, 5), conn_id);
    if (payload.rfind("HB ", 0) == 0) {
        std::uint64_t epoch = 0;
        std::string key;
        if (!epochAndKey(payload, 2, epoch, key))
            return "ERROR bad-request";
        return validateEpoch(key, epoch, false) ? "OK" : "FENCED";
    }
    if (payload.rfind("REL ", 0) == 0) {
        std::uint64_t epoch = 0;
        std::string key;
        if (!epochAndKey(payload, 3, epoch, key))
            return "ERROR bad-request";
        // Peers read "lease gone" as "result durable". A record
        // streamed over PUT may still sit in this store's group
        // commit, so sync before dropping the lease. Same-host peers
        // synced the shared file themselves (publish) and never PUT,
        // so their releases skip the wait. The sync runs outside the
        // lease mutex (it can block on the writer); a fenced releaser
        // pays for a spurious sync, which is harmless.
        if (streamed_.load(std::memory_order_acquire))
            cache_.sync();
        return validateEpoch(key, epoch, true) ? "OK" : "FENCED";
    }
    if (payload.rfind("SKIPMARK ", 0) == 0) {
        std::uint64_t epoch = 0;
        std::string key;
        if (!epochAndKey(payload, 8, epoch, key))
            return "ERROR bad-request";
        std::lock_guard<std::mutex> lk(leaseMu_);
        const auto it = leases_.find(key);
        if (it == leases_.end() || it->second.epoch != epoch) {
            std::lock_guard<std::mutex> slk(statsMu_);
            ++counters_.fencedOps;
            return "FENCED";
        }
        // Marker first, lease second, like markSkipped(): a waiter
        // that sees the lease vanish must already see why.
        skips_[key] = std::chrono::steady_clock::now();
        leases_.erase(it);
        {
            std::lock_guard<std::mutex> slk(statsMu_);
            ++counters_.skipsMarked;
        }
        return "OK";
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
    if (payload == "STATS")
        return statsLine();
    if (payload == "SHUTDOWN") {
        if (!options_.allowRemoteShutdown)
            return "ERROR forbidden remote shutdown is disabled";
        {
            std::lock_guard<std::mutex> lk(connMu_);
            shutdownRequested_ = true;
        }
        shutdownCv_.notify_all();
        return "OK";
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
        std::lock_guard<std::mutex> lk(leaseMu_);
        const auto skip = skips_.find(key);
        if (skip != skips_.end()) {
            if (now - skip->second <= staleThreshold()) {
                std::lock_guard<std::mutex> slk(statsMu_);
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
            std::lock_guard<std::mutex> slk(statsMu_);
            ++counters_.acquiresDenied;
            return "HELD";
        }
        epoch = ++epochs_[key];
        leases_[key] = Lease{epoch, now, conn_id, false};
    }
    {
        std::lock_guard<std::mutex> slk(statsMu_);
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
        std::lock_guard<std::mutex> lk(leaseMu_);
        const auto it = leases_.find(key);
        if (it == leases_.end())
            return "DENIED"; // Vanished: owner finished; re-probe.
        const bool stale = it->second.orphaned ||
                           now - it->second.beat > staleThreshold();
        if (!stale)
            return "DENIED";
        epoch = ++epochs_[key];
        it->second = Lease{epoch, now, conn_id, false};
    }
    {
        std::lock_guard<std::mutex> slk(statsMu_);
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
    std::lock_guard<std::mutex> lk(leaseMu_);
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
Coordinator::validateEpoch(const std::string &key, std::uint64_t epoch,
                           bool erase)
{
    std::lock_guard<std::mutex> lk(leaseMu_);
    const auto it = leases_.find(key);
    if (it == leases_.end() || it->second.epoch != epoch) {
        std::lock_guard<std::mutex> slk(statsMu_);
        ++counters_.fencedOps;
        return false;
    }
    if (erase) {
        leases_.erase(it);
    } else {
        it->second.beat = std::chrono::steady_clock::now();
        it->second.orphaned = false;
    }
    return true;
}

std::string
Coordinator::handlePut(const std::string &payload)
{
    // The record is one storefmt frame, CRC and all — the same bytes
    // an append would carry — re-verified here before it reaches the
    // store. The wire envelope's own checksum already held, so a
    // failure is a worker bug, not line noise.
    constexpr std::size_t kVerbBytes = 4; // "PUT\n"
    storefmt::Frame frame;
    const auto parsed = storefmt::parseFrameAt(
        payload.data(), kVerbBytes, payload.size(), frame);
    if (parsed != storefmt::FrameParse::Ok ||
        kVerbBytes + frame.bytes != payload.size()) {
        {
            std::lock_guard<std::mutex> slk(statsMu_);
            ++counters_.badFrames;
        }
        return "ERROR bad-frame";
    }
    // The normal group-commit path: concurrent workers' records batch
    // into one append+fsync, and REL's sync() makes them durable
    // before any lease drops.
    cache_.put(frame.key, frame.values);
    streamed_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> slk(statsMu_);
        ++counters_.recordsCommitted;
        counters_.recordBytes += frame.bytes;
    }
    return "OK";
}

std::string
Coordinator::handleGet(const std::string &key)
{
    const auto values = cache_.get(key);
    if (!values) {
        std::lock_guard<std::mutex> slk(statsMu_);
        ++counters_.fetchMisses;
        return "MISS";
    }
    {
        std::lock_guard<std::mutex> slk(statsMu_);
        ++counters_.fetchHits;
    }
    std::string out = "HIT\n";
    storefmt::appendFrame(out, key, *values);
    return out;
}

std::string
Coordinator::statsLine() const
{
    return "OK " + stats().summaryLine();
}

} // namespace ebm
