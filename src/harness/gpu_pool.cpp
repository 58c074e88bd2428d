#include "harness/gpu_pool.hpp"

#include <atomic>
#include <exception>
#include <utility>

#include "sim/gpu.hpp"

namespace ebm {

namespace {

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag{true};
    return flag;
}

} // namespace

GpuPool::Lease::Lease(GpuPool *pool, Key key, std::unique_ptr<Gpu> gpu)
    : pool_(pool), key_(std::move(key)), gpu_(std::move(gpu)),
      uncaughtAtAcquire_(std::uncaught_exceptions())
{
}

GpuPool::Lease::Lease(Lease &&other) noexcept
    : pool_(other.pool_), key_(std::move(other.key_)),
      gpu_(std::move(other.gpu_)), poisoned_(other.poisoned_),
      uncaughtAtAcquire_(other.uncaughtAtAcquire_)
{
    other.pool_ = nullptr;
}

GpuPool::Lease::~Lease()
{
    if (gpu_ == nullptr)
        return;
    // A destructor running as part of exception unwinding means the
    // run died mid-measurement: the instance's warps, queues, and
    // knobs are in an unknown state, so it must not be reused.
    const bool unwinding =
        std::uncaught_exceptions() > uncaughtAtAcquire_;
    if (pool_ != nullptr) {
        pool_->release(std::move(key_), std::move(gpu_),
                       poisoned_ || unwinding);
    }
    // pool_ == nullptr: pooling was disabled at acquire; the instance
    // is simply destroyed, exactly like the pre-pool code path.
}

GpuPool::Lease
GpuPool::acquire(const GpuConfig &cfg,
                 const std::vector<AppProfile> &apps,
                 std::vector<std::uint32_t> core_share)
{
    Lease::Key key{cfg, apps, std::move(core_share)};
    if (!enabled()) {
        auto gpu = std::make_unique<Gpu>(key.cfg, key.apps,
                                         key.coreShare);
        return Lease(nullptr, std::move(key), std::move(gpu));
    }
    for (std::size_t i = 0; i < idle_.size(); ++i) {
        if (idle_[i].key == key) {
            std::unique_ptr<Gpu> gpu = std::move(idle_[i].gpu);
            idle_.erase(idle_.begin() +
                        static_cast<std::ptrdiff_t>(i));
            // Construction-fresh state: wipe cycle/warp/queue/DRAM
            // state and cache tags, then undo whatever knobs the
            // previous run's policy left behind.
            gpu->reset(/*flush_caches=*/true);
            gpu->restoreKnobDefaults();
            ++stats_.hits;
            return Lease(this, std::move(key), std::move(gpu));
        }
    }
    auto gpu = std::make_unique<Gpu>(key.cfg, key.apps, key.coreShare);
    ++stats_.misses;
    return Lease(this, std::move(key), std::move(gpu));
}

void
GpuPool::release(Lease::Key key, std::unique_ptr<Gpu> gpu, bool poisoned)
{
    if (poisoned || !enabled()) {
        ++stats_.discards;
        return;
    }
    idle_.push_back(Entry{std::move(key), std::move(gpu)});
    if (idle_.size() > kMaxIdle) {
        idle_.erase(idle_.begin()); // Oldest shape goes first.
        ++stats_.evictions;
    }
}

void
GpuPool::clear()
{
    idle_.clear();
}

GpuPool &
GpuPool::threadLocal()
{
    static thread_local GpuPool pool;
    return pool;
}

bool
GpuPool::enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
GpuPool::setEnabled(bool enabled)
{
    enabledFlag().store(enabled, std::memory_order_relaxed);
}

} // namespace ebm
