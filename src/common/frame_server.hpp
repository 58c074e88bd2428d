/**
 * @file
 * The one framed-request server under both daemons: the lease
 * Coordinator and the AdvisorServer each supply a request handler and
 * keep only their grammar. A FrameServer takes an already-bound
 * listener (a path AF_UNIX socket, or an abstract AF_UNIX name)
 * and runs one thread blocked in accept(), woken by shutdown() on the
 * listener, plus one thread per connection that answers each EBS1
 * frame (common/wire.hpp) with one framed reply. Finished connection
 * threads are joined on the next accept, so a long-lived server holds
 * only threads that are still serving. A garbled stream gets one
 * best-effort `ERROR bad-frame <reason>` reply and is dropped: with no
 * frame boundary left there is nothing to resynchronize on.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/net.hpp"
#include "common/stats.hpp"

namespace ebm {

/** Thread-per-connection server of one-frame-in, one-frame-out RPCs. */
class FrameServer
{
  public:
    /** Answer one request from connection @p conn (ids count from 1
     * in accept order). Called from many threads at once. */
    using Handler = std::function<std::string(const std::string &payload,
                                              std::uint64_t conn)>;
    /** Runs on the connection's thread once it stops serving. */
    using CloseHook = std::function<void(std::uint64_t conn)>;

    /** @p latency receives the handler's time per request (ns). */
    FrameServer(Handler handler, LatencyHistogram &latency,
                CloseHook on_close = nullptr);
    /** stop()s, so every thread is joined before the owner's state
     * goes: declare the FrameServer after what its handlers use. */
    ~FrameServer();

    FrameServer(const FrameServer &) = delete;
    FrameServer &operator=(const FrameServer &) = delete;

    /** Serve on bound, listening @p listener. With @p same_user_only,
     * peers running under another uid are refused (SO_PEERCRED). */
    Status start(UniqueFd listener, bool same_user_only);

    /** Stop accepting, shut open connections, join all threads. Safe
     * to call twice, and before start(). */
    void stop();

    /** Stop accepting at once (closing the listener frees its name),
     * wait at most @p timeout for connected peers to hang up, then
     * stop(). */
    void retire(std::chrono::milliseconds timeout);

    /** Flag a shutdown (a SHUTDOWN verb): waitForShutdown() returns,
     * and each connection closes after its next reply. */
    void requestShutdown();

    /** Was a shutdown requested, or has stop() begun? */
    bool shutdownRequested() const;

    /** Block until requestShutdown() or stop(). */
    void waitForShutdown();

    /** Connections accepted so far (refused peers not counted). */
    std::uint64_t connections() const;

  private:
    void acceptLoop();
    void serveConnection(int fd, std::uint64_t conn);
    /** Wake and join the accept thread, then close the listener. */
    void closeListener();

    const Handler handler_;
    LatencyHistogram &latency_;
    const CloseHook onClose_;
    UniqueFd listener_;
    bool sameUserOnly_ = false;

    mutable std::mutex mu_;
    /** Signals requestShutdown()/stop() and connections closing. */
    std::condition_variable cv_;
    std::unordered_map<std::uint64_t, std::thread> conns_;
    /** Connections whose thread has finished serving (to join). */
    std::vector<std::uint64_t> finished_;
    std::unordered_set<int> openFds_;
    std::uint64_t accepted_ = 0;
    bool stopping_ = false;
    bool shutdownRequested_ = false;

    std::thread acceptThread_;
};

} // namespace ebm
