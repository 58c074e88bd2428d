#include "harness/warm_state.hpp"

#include <algorithm>
#include <atomic>

#include "common/config.hpp"
#include "common/log.hpp"

namespace ebm {

namespace {

std::atomic<bool> &
enabledFlag()
{
    // Strict shared parser: "0" disables, "1" (or unset) enables,
    // garbage warns and falls back to enabled.
    static std::atomic<bool> flag{envUint("EBM_SNAPSHOT", 1, 0, 1) != 0};
    return flag;
}

} // namespace

WarmStateCache::WarmStateCache() : budgetBytes_(kSnapshotBudgetBytes) {}

void
WarmStateCache::computeWarm(Gpu &gpu, const Checkpoint *seed,
                            Cycle target, Cycle window_cycles,
                            Cycle relay_latency, Checkpoint &out)
{
    // The prefix is policy-free: default knobs, windows closed on the
    // monitor, counters checkpointed after each close. This is
    // exactly what the Runner's loop does over the same span for a
    // deferred (or gpu-neutral-start) policy, so the trajectory — and
    // therefore the capture — is bit-identical to a cold run's.
    EbMonitor monitor(gpu, EbMonitor::Mode::DesignatedUnits,
                      relay_latency, nullptr);
    Cycle elapsed = 0;
    if (seed != nullptr) {
        gpu.restore(seed->gpu);
        monitor.restore(seed->monitor);
        elapsed = seed->elapsed;
    }
    // Cold: the run-start checkpoint. Seeded: the deferred post-window
    // checkpoint of the close the seed was captured at.
    gpu.checkpoint();
    while (true) {
        const Cycle chunk =
            std::min<Cycle>(window_cycles, target - elapsed);
        gpu.run(chunk);
        elapsed += chunk;
        const EbSample sample = monitor.closeWindow(gpu.now());
        if (elapsed >= target) {
            // Capture *before* the post-window checkpoint: the resumed
            // run performs this window's tail itself.
            out.gpu = gpu.snapshot();
            out.monitor = monitor.snapshot();
            out.sample = sample;
            out.elapsed = elapsed;
            return;
        }
        gpu.checkpoint();
    }
}

std::shared_ptr<const WarmStateCache::Checkpoint>
WarmStateCache::warmTo(std::uint64_t base_key, Gpu &gpu, Cycle target,
                       Cycle window_cycles, Cycle relay_latency)
{
    if (!enabled())
        return nullptr;

    const std::pair<std::uint64_t, Cycle> key{base_key, target};
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        const auto it = std::find_if(
            entries_.begin(), entries_.end(), [&](const Entry &e) {
                return e.baseKey == base_key && e.elapsed == target;
            });
        if (it != entries_.end()) {
            entries_.splice(entries_.begin(), entries_, it);
            ++stats_.hits;
            return it->checkpoint;
        }
        if (std::find(inflight_.begin(), inflight_.end(), key) ==
            inflight_.end())
            break;
        // Another thread is computing exactly this checkpoint; wait
        // for it rather than duplicating a full prefix simulation.
        cv_.wait(lock);
    }
    inflight_.push_back(key);

    // Nearest shallower checkpoint of the same shape seeds the warm,
    // so only the remainder of the prefix is simulated.
    std::shared_ptr<const Checkpoint> seed;
    for (const Entry &e : entries_) {
        if (e.baseKey != base_key || e.elapsed >= target)
            continue;
        if (seed == nullptr || e.elapsed > seed->elapsed)
            seed = e.checkpoint;
    }
    ++stats_.misses;
    if (seed != nullptr)
        ++stats_.resumes;
    lock.unlock();

    auto cp = std::make_shared<Checkpoint>();
    computeWarm(gpu, seed.get(), target, window_cycles, relay_latency,
                *cp);

    lock.lock();
    inflight_.erase(
        std::find(inflight_.begin(), inflight_.end(), key));
    insertLocked(base_key, cp);
    cv_.notify_all();
    return cp;
}

void
WarmStateCache::insertLocked(std::uint64_t base_key,
                             std::shared_ptr<const Checkpoint> cp)
{
    stats_.retainedBytes += cp->heapBytes() + sizeof(Checkpoint);
    entries_.push_front(Entry{base_key, cp->elapsed, std::move(cp)});
    // LRU byte budget. The newest entry always survives — a single
    // oversized checkpoint must not evict itself into a thrash loop.
    while (stats_.retainedBytes > budgetBytes_ && entries_.size() > 1) {
        const Entry &victim = entries_.back();
        stats_.retainedBytes -=
            victim.checkpoint->heapBytes() + sizeof(Checkpoint);
        entries_.pop_back();
        ++stats_.evictions;
    }
}

WarmStateCache::Stats
WarmStateCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
WarmStateCache::setBudgetBytes(std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    budgetBytes_ = bytes;
}

void
WarmStateCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry &e : entries_)
        stats_.retainedBytes -=
            e.checkpoint->heapBytes() + sizeof(Checkpoint);
    entries_.clear();
}

WarmStateCache &
WarmStateCache::instance()
{
    static WarmStateCache cache;
    return cache;
}

bool
WarmStateCache::enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
WarmStateCache::setEnabled(bool enabled)
{
    enabledFlag().store(enabled, std::memory_order_relaxed);
}

} // namespace ebm
