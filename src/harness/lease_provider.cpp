#include "harness/lease_provider.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/config.hpp"
#include "common/log.hpp"
#include "harness/disk_cache.hpp"
#include "harness/lease_net.hpp"

namespace ebm {

std::unique_ptr<LeaseProvider>
makeLeaseProvider(DiskCache &cache)
{
    const char *coordinator = std::getenv("EBM_COORDINATOR");
    if (coordinator != nullptr && coordinator[0] != '\0') {
        auto net = NetLeaseProvider::connect(coordinator);
        if (net != nullptr)
            return net;
        warn("makeLeaseProvider: cannot reach coordinator " +
             std::string(coordinator) +
             "; sweep degrades to standalone (results stay local)");
        return nullptr;
    }
    // A read-only store appends nothing, so it has no rows to share.
    if (cache.readOnly())
        return nullptr;
    auto local = NetLeaseProvider::joinLocal(cache);
    if (local == nullptr) {
        warn("makeLeaseProvider: no local coordinator for " +
             cache.path() + "; sweep degrades to standalone");
    }
    return local;
}

std::chrono::milliseconds
leaseStaleThreshold()
{
    return std::chrono::milliseconds(
        envUint("EBM_CLAIM_STALE_MS", 10000, 1, 3600000));
}

LeaseHeartbeater::LeaseHeartbeater(LeaseProvider *lease, std::string key)
    : lease_(lease), key_(std::move(key))
{
    if (lease_ == nullptr || key_.empty())
        return;
    thread_ = std::thread([this] { run(); });
}

LeaseHeartbeater::~LeaseHeartbeater()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void
LeaseHeartbeater::run()
{
    // A quarter of the staleness window keeps a live owner at least
    // three missed ticks away from ever looking stale (the
    // coordinator judges leases against the same window on its own
    // clock).
    const auto interval = std::max(leaseStaleThreshold() / 4,
                                   std::chrono::milliseconds(10));
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (cv_.wait_for(lk, interval, [this] { return stop_; }))
            return;
        lk.unlock();
        const bool ok = lease_->heartbeat(key_);
        lk.lock();
        if (!ok) {
            // Fenced: stop renewing a lease that is no longer ours
            // and let the owner discover it after the run.
            fenced_.store(true, std::memory_order_relaxed);
            return;
        }
    }
}

} // namespace ebm
