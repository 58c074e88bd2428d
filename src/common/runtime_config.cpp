#include "common/runtime_config.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"

namespace ebm {

namespace {

/** The open Override's snapshot, or null for the environment's. */
std::atomic<const RuntimeConfig *> &
overridden()
{
    static std::atomic<const RuntimeConfig *> active{nullptr};
    return active;
}

const RuntimeConfig &
fromEnvironment()
{
    static const RuntimeConfig parsed =
        RuntimeConfig::parse([](const char *name) {
            return std::getenv(name);
        });
    return parsed;
}

} // namespace

RuntimeConfig
RuntimeConfig::parse(const Lookup &lookup)
{
    const auto text = [&](const char *name) {
        const char *value = lookup(name);
        return std::string(value != nullptr ? value : "");
    };
    // Unset or empty is the default; anything but an unsigned integer
    // warns and keeps it; a number out of range is clamped into it.
    const auto number = [&](const char *name, std::uint64_t fallback,
                            std::uint64_t min, std::uint64_t max) {
        const std::string value = text(name);
        std::uint64_t n = 0;
        if (value.empty())
            return fallback;
        if (!parseUint(value.c_str(), n)) {
            warn(std::string(name) + ": ignoring invalid value '" +
                 value + "' (expected an unsigned integer)");
            return fallback;
        }
        return std::clamp(n, min, max);
    };
    // "0", "false", "off" and "no" (any case) are false, any other
    // non-empty value is true.
    const auto flag = [&](const char *name) {
        std::string value = text(name);
        std::transform(value.begin(), value.end(), value.begin(),
                       [](unsigned char c) {
                           return static_cast<char>(std::tolower(c));
                       });
        return !value.empty() && value != "0" && value != "false" &&
               value != "off" && value != "no";
    };

    RuntimeConfig c;
    c.jobs = static_cast<unsigned>(number("EBM_JOBS", 0, 0, 1u << 16));
    if (c.jobs == 0)
        c.jobs = std::max(1u, std::thread::hardware_concurrency());
    c.cacheDir = text("EBM_CACHE_DIR");
    c.cacheCompact = flag("EBM_CACHE_COMPACT");
    c.cacheReadOnly = flag("EBM_CACHE_READONLY");
    c.claimStale = std::chrono::milliseconds(
        number("EBM_CLAIM_STALE_MS", 10000, 1, kMaxWindowMs));
    c.snapshot = number("EBM_SNAPSHOT", 1, 0, 1) != 0;
    c.abortOnPanic = flag("EBM_ABORT_ON_PANIC");
    return c;
}

const RuntimeConfig &
RuntimeConfig::get()
{
    const RuntimeConfig *active =
        overridden().load(std::memory_order_acquire);
    return active != nullptr ? *active : fromEnvironment();
}

std::string
RuntimeConfig::describe() const
{
    std::ostringstream out;
    out << "EBM_JOBS=" << jobs << " EBM_CACHE_DIR=" << cacheDir
        << " EBM_CACHE_COMPACT=" << cacheCompact
        << " EBM_CACHE_READONLY=" << cacheReadOnly
        << " EBM_CLAIM_STALE_MS=" << claimStale.count()
        << " EBM_SNAPSHOT=" << snapshot
        << " EBM_ABORT_ON_PANIC=" << abortOnPanic;
    return out.str();
}

RuntimeConfig::Override::Override(
    const std::function<void(RuntimeConfig &)> &edit)
    : previous_(overridden().load(std::memory_order_acquire))
{
    // Every installed snapshot is kept for the process's life (a few
    // hundred bytes a scope; tests open hundreds at most).
    static std::mutex mu;
    static std::vector<std::unique_ptr<const RuntimeConfig>> installed;
    auto config = std::make_unique<RuntimeConfig>(get());
    edit(*config);
    std::lock_guard<std::mutex> lk(mu);
    overridden().store(config.get(), std::memory_order_release);
    installed.push_back(std::move(config));
}

RuntimeConfig::Override::~Override()
{
    overridden().store(previous_, std::memory_order_release);
}

} // namespace ebm
