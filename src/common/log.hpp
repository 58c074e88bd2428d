/**
 * @file
 * Minimal logging / error helpers in the gem5 spirit.
 *
 * - fatal():  the simulation cannot continue due to a user error
 *             (bad configuration, invalid arguments); throws
 *             FatalError so harness entry points can report and exit
 *             cleanly — library code never calls std::exit.
 * - panic():  an internal invariant was violated (a simulator bug);
 *             throws InternalError by default. Set EBM_ABORT_ON_PANIC=1
 *             (RuntimeConfig::abortOnPanic) to abort instead so a
 *             core dump / debugger can be attached.
 * - warn():   something may behave approximately; execution continues.
 * - inform(): status messages with no connotation of misbehaviour.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "common/runtime_config.hpp"

namespace ebm {

namespace detail {

/**
 * One process-wide mutex serializing log emission: every message is a
 * single whole line, so concurrent harness workers never interleave
 * fragments of their warnings.
 */
inline std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

} // namespace detail

/** Terminate the current operation due to a user/configuration error. */
[[noreturn]] inline void
fatal(Error error)
{
    {
        std::lock_guard<std::mutex> lk(detail::logMutex());
        std::fprintf(stderr, "fatal: %s\n", error.message.c_str());
    }
    throw FatalError(std::move(error));
}

/** Convenience overload: a fatal with the generic config category. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    fatal(Error{Errc::InvalidConfig, msg});
}

/** Report an internal simulator bug. */
[[noreturn]] inline void
panic(const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lk(detail::logMutex());
        std::fprintf(stderr, "panic: %s\n", msg.c_str());
    }
    if (RuntimeConfig::get().abortOnPanic)
        std::abort();
    throw InternalError(msg);
}

/** Non-fatal warning. */
inline void
warn(const std::string &msg)
{
    std::lock_guard<std::mutex> lk(detail::logMutex());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/** Informational status message. */
inline void
inform(const std::string &msg)
{
    std::lock_guard<std::mutex> lk(detail::logMutex());
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

/**
 * Run @p body under the library's failure model: FatalError (and any
 * std::exception) is reported to stderr and converted to exit code 1
 * instead of an abort. Harness/bench entry points wrap main in this.
 */
template <typename Fn>
int
runGuarded(const char *what, Fn &&body)
{
    try {
        return body();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: aborted: %s\n", what, e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: unexpected error: %s\n", what,
                     e.what());
    }
    return 1;
}

} // namespace ebm
