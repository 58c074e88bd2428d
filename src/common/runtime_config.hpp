/**
 * @file
 * Every `EBM_*` environment variable the program reads, parsed once
 * into one immutable RuntimeConfig: get() parses on first use, each
 * bad value warns once and keeps its default, and nothing else reads
 * the environment. Tests and mains that need other settings for a
 * stretch of code open an Override scope instead of calling setenv;
 * forked children inherit the snapshot in force at fork().
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

namespace ebm {

/** One immutable snapshot of the `EBM_*` settings. */
struct RuntimeConfig
{
    /** EBM_JOBS: default JobPool concurrency, >= 1 (unset or 0: the
     * hardware concurrency). */
    unsigned jobs = 1;
    /** EBM_CACHE_DIR: the default store's directory ("": cwd). */
    std::string cacheDir;
    /** EBM_CACHE_COMPACT: an Experiment compacts its store on exit. */
    bool cacheCompact = false;
    /** EBM_CACHE_READONLY: every DiskCache opens read-only. */
    bool cacheReadOnly = false;
    /** EBM_CLAIM_STALE_MS: the lease window of a Coordinator started
     * without one. Peers use the window their coordinator reports. */
    std::chrono::milliseconds claimStale{10000};
    /** The widest lease window anything accepts, in ms. */
    static constexpr std::uint64_t kMaxWindowMs = 3600000;
    /** EBM_SNAPSHOT: the warm-state fork cache is on. */
    bool snapshot = true;
    /** EBM_ABORT_ON_PANIC: panic() aborts instead of throwing. */
    bool abortOnPanic = false;

    /** Reads one variable; null when unset. */
    using Lookup = std::function<const char *(const char *name)>;

    /** Parse the settings from @p lookup, warning once per bad value.
     * get() calls this with the process environment. */
    static RuntimeConfig parse(const Lookup &lookup);

    /** The snapshot in force: the innermost open Override, else the
     * environment as parsed on the first call. */
    static const RuntimeConfig &get();

    /** The settings as space-separated `EBM_NAME=value` tokens. */
    std::string describe() const;

    class Override;
};

/**
 * Run a scope under an edited copy of the current snapshot. Scopes
 * nest and must close in reverse order of opening. Each scope's
 * snapshot stays allocated until the process exits, so a thread that
 * read it just as the scope closed never reads freed memory.
 */
class RuntimeConfig::Override
{
  public:
    explicit Override(const std::function<void(RuntimeConfig &)> &edit);
    ~Override();

    Override(const Override &) = delete;
    Override &operator=(const Override &) = delete;

  private:
    const RuntimeConfig *previous_;
};

} // namespace ebm
