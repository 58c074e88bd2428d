/**
 * @file
 * Minimal socket plumbing for the serving front door
 * (harness/advisor_service.hpp) and the same-host lease fabric
 * (harness/coordinator.hpp): an RAII fd, Unix-domain listeners and
 * connectors, and full-buffer read/write loops that survive EINTR and
 * partial transfers. Deliberately tiny — no event loop, no TLS, no
 * name resolution — so the protocol layers above it can be tested
 * byte-by-byte.
 *
 * All functions report failures through the structured error model
 * (Error / Result-like return values), never exit; callers decide
 * whether a dead peer is fatal.
 */
#pragma once

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace ebm {

/** RAII file descriptor (sockets here, but any fd works). */
class UniqueFd
{
  public:
    UniqueFd() = default;
    explicit UniqueFd(int fd) : fd_(fd) {}
    ~UniqueFd() { reset(); }

    UniqueFd(UniqueFd &&other) noexcept : fd_(other.release()) {}
    UniqueFd &
    operator=(UniqueFd &&other) noexcept
    {
        if (this != &other)
            reset(other.release());
        return *this;
    }
    UniqueFd(const UniqueFd &) = delete;
    UniqueFd &operator=(const UniqueFd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    int
    release()
    {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

    void
    reset(int fd = -1)
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = fd;
    }

  private:
    int fd_ = -1;
};

/**
 * Fill @p addr from @p path and return the address length to pass to
 * bind()/connect(), or 0 when the name does not fit sun_path (108
 * bytes). A @p path starting with '\0' names a socket in the Linux
 * abstract namespace: no file is created, and the name vanishes with
 * the last descriptor of the socket bound to it.
 */
inline socklen_t
unixSockAddr(const std::string &path, sockaddr_un &addr)
{
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path)
        return 0;
    std::memcpy(addr.sun_path, path.data(), path.size());
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  path.size() +
                                  (path[0] == '\0' ? 0 : 1));
}

/** The failure of @p call on @p name, from errno. */
inline Error
netErrno(const std::string &call, const std::string &name)
{
    return Error{Errc::CacheIo, call + "(" + name + ") failed: " +
                                    std::string(std::strerror(errno))};
}

/**
 * Bind and listen on a Unix-domain socket at @p path. A stale socket
 * file from a dead daemon is unlinked first (the caller is expected
 * to own the path; two live daemons on one path is a deployment
 * error this cannot detect). An abstract name (leading '\0') is never
 * unlinked: bind() fails while another socket holds it, which is what
 * lets the first binder win an election.
 */
inline Result<UniqueFd>
netListenUnix(const std::string &path, int backlog = 64)
{
    sockaddr_un addr;
    const socklen_t len = unixSockAddr(path, addr);
    if (len == 0) {
        return Error{Errc::InvalidArgument,
                     "socket path too long: " + path};
    }
    if (path[0] != '\0')
        ::unlink(path.c_str());
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        return netErrno("socket", "");
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr), len) != 0)
        return netErrno("bind", path);
    if (::listen(fd.get(), backlog) != 0)
        return netErrno("listen", path);
    return fd;
}

/** Connect to the Unix-domain socket at @p path (or abstract name). */
inline Result<UniqueFd>
netConnectUnix(const std::string &path)
{
    sockaddr_un addr;
    const socklen_t len = unixSockAddr(path, addr);
    if (len == 0) {
        return Error{Errc::InvalidArgument,
                     "socket path too long: " + path};
    }
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        return netErrno("socket", "");
    int rc;
    do {
        rc = ::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr), len);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0)
        return netErrno("connect", path);
    return fd;
}

/** Is the peer of Unix-domain socket @p fd running as this process's
 * effective uid (SO_PEERCRED)? False when the credentials cannot be
 * read. */
inline bool
netPeerIsSameUser(int fd)
{
    ucred cred{};
    socklen_t len = sizeof cred;
    if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &len) != 0)
        return false;
    return cred.uid == ::geteuid();
}

/**
 * Write all @p len bytes of @p data to @p fd (MSG_NOSIGNAL, so a dead
 * peer surfaces as an error, not SIGPIPE). @return false on any error.
 */
inline bool
netWriteFull(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Read up to @p len bytes into @p data; retries EINTR. @return bytes
 * read (0 = orderly EOF), or -1 on error. One short recv is fine —
 * the frame reader above this reassembles partial reads.
 */
inline ssize_t
netRead(int fd, void *data, std::size_t len)
{
    for (;;) {
        const ssize_t n = ::recv(fd, data, len, 0);
        if (n >= 0)
            return n;
        if (errno == EINTR)
            continue;
        return -1;
    }
}

/** Block until @p fd is readable or @p timeout_ms elapses (-1 =
 * forever). @return true when readable. */
inline bool
netWaitReadable(int fd, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    for (;;) {
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc > 0)
            return (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
        if (rc == 0)
            return false;
        if (errno != EINTR)
            return false;
    }
}

} // namespace ebm
