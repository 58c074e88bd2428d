#include "common/frame_server.hpp"

#include <utility>

#include "common/wire.hpp"

namespace ebm {

FrameServer::FrameServer(Handler handler, LatencyHistogram &latency,
                         CloseHook on_close)
    : handler_(std::move(handler)), latency_(latency),
      onClose_(std::move(on_close))
{
}

FrameServer::~FrameServer() { stop(); }

Status
FrameServer::start(UniqueFd listener, bool same_user_only)
{
    if (!listener.valid() || acceptThread_.joinable())
        return Error{Errc::InvalidArgument,
                     "FrameServer: no listener, or already started"};
    listener_ = std::move(listener);
    sameUserOnly_ = same_user_only;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return Status::success();
}

void
FrameServer::closeListener()
{
    // close() alone does not wake a thread blocked in accept();
    // shutdown() on the listening socket does (accept fails with
    // EINVAL). Only close the fd after the loop has exited, so the
    // number cannot be reused under a still-running accept call.
    if (listener_.valid())
        ::shutdown(listener_.get(), SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.reset();
}

void
FrameServer::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
        // Unblock connection threads stuck in recv: a reader sees
        // EOF/error and falls out of its loop.
        for (const int fd : openFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    cv_.notify_all();
    closeListener();
    std::unordered_map<std::uint64_t, std::thread> conns;
    {
        std::lock_guard<std::mutex> lk(mu_);
        conns.swap(conns_);
        finished_.clear();
    }
    for (auto &entry : conns)
        entry.second.join();
}

void
FrameServer::retire(std::chrono::milliseconds timeout)
{
    // Stop accepting first, so a client arriving from now on finds
    // the name free instead of queueing on a dying server.
    closeListener();
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait_for(lk, timeout, [this] { return openFds_.empty(); });
    }
    stop();
}

void
FrameServer::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        shutdownRequested_ = true;
    }
    cv_.notify_all();
}

bool
FrameServer::shutdownRequested() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return shutdownRequested_ || stopping_;
}

void
FrameServer::waitForShutdown()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return shutdownRequested_ || stopping_; });
}

std::uint64_t
FrameServer::connections() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return accepted_;
}

void
FrameServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listener_.get(), nullptr, nullptr);
        if (fd < 0 && errno == EINTR)
            continue;
        if (fd < 0)
            return; // Listener shut down (stop/retire) or errored.
        if (sameUserOnly_ && !netPeerIsSameUser(fd)) {
            ::close(fd);
            continue;
        }
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_) {
            ::close(fd);
            return;
        }
        // A finished connection thread only has its return left to
        // run, so these joins are immediate. Without them a long-lived
        // server would keep one dead thread (and its stack) per
        // connection ever served.
        for (const std::uint64_t id : finished_) {
            conns_.at(id).join();
            conns_.erase(id);
        }
        finished_.clear();
        // Counted before the first reply can go out, so a connected
        // peer is always in connections().
        const std::uint64_t conn = ++accepted_;
        openFds_.insert(fd);
        conns_.emplace(conn, std::thread([this, fd, conn] {
                           serveConnection(fd, conn);
                       }));
    }
}

void
FrameServer::serveConnection(int fd, std::uint64_t conn)
{
    wire::FrameReader reader;
    std::string payload;
    while (wire::recvFrame(fd, reader, payload)) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::string reply = handler_(payload, conn);
        latency_.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
        if (!wire::sendFrame(fd, reply) || shutdownRequested())
            break;
    }
    // A garbled stream stays garbled (the reader's verdict is sticky):
    // tell the peer why before dropping it.
    std::string bad;
    if (reader.next(payload, &bad) == wire::FrameReader::Status::Bad)
        wire::sendFrame(fd, "ERROR bad-frame " + bad);
    if (onClose_)
        onClose_(conn);
    {
        std::lock_guard<std::mutex> lk(mu_);
        openFds_.erase(fd);
        ::close(fd);
        finished_.push_back(conn);
    }
    cv_.notify_all();
}

} // namespace ebm
