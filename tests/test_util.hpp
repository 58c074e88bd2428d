/**
 * @file
 * Shared fixtures for the test suite: a deliberately tiny simulated
 * GPU so unit and integration tests run in milliseconds, small
 * synthetic application profiles with known behaviour, a scoped
 * environment override, and fork-and-reap helpers for the suites that
 * run cooperating peer processes.
 */
#pragma once

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "harness/run_result.hpp"
#include "workload/app_profile.hpp"

/**
 * Expect @p statement to fail through the structured error model
 * (fatal()/panic() throw FatalError/InternalError) with a message
 * containing @p substr. The successor of the old EXPECT_DEATH checks:
 * library errors no longer kill the process.
 */
#define EXPECT_EBM_FATAL(statement, substr)                              \
    do {                                                                 \
        bool ebm_test_threw_ = false;                                    \
        try {                                                            \
            statement;                                                   \
        } catch (const ::ebm::FatalError &ebm_test_err_) {               \
            ebm_test_threw_ = true;                                      \
            EXPECT_NE(std::string(ebm_test_err_.what()).find(substr),    \
                      std::string::npos)                                 \
                << "error message was: " << ebm_test_err_.what();        \
        }                                                                \
        EXPECT_TRUE(ebm_test_threw_)                                     \
            << "expected a FatalError containing \"" << substr << "\"";  \
    } while (0)

namespace ebm::test {

/** A 4-core, 2-partition machine for fast tests. */
inline GpuConfig
tinyConfig(std::uint32_t num_apps = 1)
{
    GpuConfig cfg;
    cfg.numCores = 4;
    cfg.numPartitions = 2;
    cfg.numApps = num_apps;
    cfg.maxWarpsPerCore = 16;
    cfg.schedulersPerCore = 2;
    cfg.l1 = {8 * 1024, 4, 128, 16, 4};
    cfg.l2Slice = {64 * 1024, 8, 128, 32, 4};
    cfg.banksPerChannel = 8;
    cfg.bankGroups = 4;
    cfg.frfcfsQueueDepth = 32;
    return cfg;
}

/** Short measurement windows to match the tiny machine. */
inline RunOptions
tinyOptions()
{
    RunOptions opts;
    opts.warmupCycles = 1000;
    opts.measureCycles = 6000;
    opts.windowCycles = 500;
    return opts;
}

/** A pure-streaming application (cache-insensitive, BW hungry). */
inline AppProfile
streamingApp(const std::string &name = "STREAM", std::uint32_t seed = 7)
{
    AppProfile p;
    p.name = name;
    p.seed = seed;
    p.mlpBurst = 4;
    p.computeRun = 6;
    p.fracL1Reuse = 0.0;
    p.fracL2Reuse = 0.0;
    p.fracRandom = 0.0;
    return p;
}

/** A cache-sensitive application (small per-warp working set). */
inline AppProfile
cacheApp(const std::string &name = "CACHE", std::uint32_t seed = 11)
{
    AppProfile p;
    p.name = name;
    p.seed = seed;
    p.mlpBurst = 4;
    p.computeRun = 6;
    p.fracL1Reuse = 0.55;
    p.fracL2Reuse = 0.30;
    p.fracRandom = 0.0;
    p.l1ReuseLines = 12;
    p.l2ReuseLines = 512;
    return p;
}

/** A compute-bound application (its few loads stay L1 resident). */
inline AppProfile
computeApp(const std::string &name = "COMPUTE", std::uint32_t seed = 13)
{
    AppProfile p;
    p.name = name;
    p.seed = seed;
    p.mlpBurst = 1;
    p.computeRun = 30;
    p.fracL1Reuse = 1.0;
    p.l1ReuseLines = 8;
    return p;
}

/**
 * What lies beside the store at @p path: every name in its directory
 * that starts with the store's file name, other than the store itself
 * (claim directories, sidecars, temp files).
 */
inline std::vector<std::string>
filesBeside(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::vector<std::string> found;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            const std::string name = e->d_name;
            if (name != base && name.rfind(base, 0) == 0)
                found.push_back(name);
        }
        ::closedir(d);
    }
    return found;
}

/** Set an environment variable for one scope (restored on exit). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

/**
 * Fork a peer process that runs @p body and exits with its return
 * value; an exception escaping @p body exits 125. The peer never
 * returns into the test, so @p body reports failures through its exit
 * code, not gtest assertions. @return the peer's pid (-1 when fork
 * failed).
 */
template <typename Body>
pid_t
forkPeer(Body &&body)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    int rc = 125;
    try {
        rc = body();
    } catch (...) {
    }
    ::_exit(rc);
}

/** Wait for peer @p pid to end. @return its wait status, or -1 when
 * it cannot be waited for. */
inline int
reapPeer(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return status;
}

/** Did a wait status come from a zero exit? */
inline bool
exitedZero(int status)
{
    return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace ebm::test
