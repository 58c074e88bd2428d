/**
 * @file
 * Minimal socket plumbing for the serving front door
 * (harness/advisor_service.hpp) and the distributed sweep fabric
 * (harness/coordinator.hpp): an RAII fd, Unix-domain and TCP
 * listeners/connectors, and full-buffer read/write loops that survive
 * EINTR and partial transfers. Deliberately tiny — no event loop, no
 * TLS, no name resolution beyond numeric/loopback — so the protocol
 * layers above it can be tested byte-by-byte.
 *
 * All functions report failures through the structured error model
 * (Error / Result-like return values), never exit; callers decide
 * whether a dead peer is fatal.
 */
#pragma once

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
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
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        return Error{Errc::CacheIo, "socket() failed: " +
                                        std::string(std::strerror(errno))};
    }
    if (path[0] != '\0')
        ::unlink(path.c_str());
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr), len) !=
        0) {
        return Error{Errc::CacheIo,
                     "bind(" + path + ") failed: " +
                         std::string(std::strerror(errno))};
    }
    if (::listen(fd.get(), backlog) != 0) {
        return Error{Errc::CacheIo,
                     "listen(" + path + ") failed: " +
                         std::string(std::strerror(errno))};
    }
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
    if (!fd.valid()) {
        return Error{Errc::CacheIo, "socket() failed: " +
                                        std::string(std::strerror(errno))};
    }
    int rc;
    do {
        rc = ::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                       len);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        return Error{Errc::CacheIo,
                     "connect(" + path + ") failed: " +
                         std::string(std::strerror(errno))};
    }
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
 * Split "host:port" into its parts. @return false when there is no
 * colon, the port is empty/non-numeric, or it exceeds 65535. The host
 * part is returned verbatim (empty host = wildcard, caller's policy).
 */
inline bool
parseHostPort(const std::string &spec, std::string &host,
              std::uint16_t &port)
{
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon + 1 >= spec.size())
        return false;
    unsigned long value = 0;
    for (std::size_t i = colon + 1; i < spec.size(); ++i) {
        const char c = spec[i];
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<unsigned long>(c - '0');
        if (value > 65535)
            return false;
    }
    host = spec.substr(0, colon);
    port = static_cast<std::uint16_t>(value);
    return true;
}

/** Fill @p addr from a numeric IPv4 @p host (empty = INADDR_ANY) and
 * @p port. No DNS — the fabric speaks to addresses, not names. */
inline bool
tcpSockAddr(const std::string &host, std::uint16_t port,
            sockaddr_in &addr)
{
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (host.empty()) {
        addr.sin_addr.s_addr = htonl(INADDR_ANY);
        return true;
    }
    return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

/**
 * Bind and listen on TCP @p host:@p port (port 0 = kernel-assigned
 * ephemeral; read it back with netLocalPort). SO_REUSEADDR is set so
 * a restarted daemon does not trip over its predecessor's TIME_WAIT.
 */
inline Result<UniqueFd>
netListenTcp(const std::string &host, std::uint16_t port,
             int backlog = 64)
{
    sockaddr_in addr;
    if (!tcpSockAddr(host, port, addr)) {
        return Error{Errc::InvalidArgument,
                     "not a numeric IPv4 address: " + host};
    }
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        return Error{Errc::CacheIo, "socket() failed: " +
                                        std::string(std::strerror(errno))};
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof one);
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0) {
        return Error{Errc::CacheIo,
                     "bind(" + host + ":" + std::to_string(port) +
                         ") failed: " +
                         std::string(std::strerror(errno))};
    }
    if (::listen(fd.get(), backlog) != 0) {
        return Error{Errc::CacheIo,
                     "listen(" + host + ":" + std::to_string(port) +
                         ") failed: " +
                         std::string(std::strerror(errno))};
    }
    return fd;
}

/** The local port a bound socket ended up on (resolves port 0). */
inline std::uint16_t
netLocalPort(int fd)
{
    sockaddr_in addr;
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) !=
        0)
        return 0;
    return ntohs(addr.sin_port);
}

/** Connect to TCP @p host:@p port. TCP_NODELAY is set — the protocols
 * above this exchange small request/response frames, and Nagle would
 * serialize them against delayed ACKs. */
inline Result<UniqueFd>
netConnectTcp(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr;
    if (!tcpSockAddr(host.empty() ? "127.0.0.1" : host, port, addr)) {
        return Error{Errc::InvalidArgument,
                     "not a numeric IPv4 address: " + host};
    }
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        return Error{Errc::CacheIo, "socket() failed: " +
                                        std::string(std::strerror(errno))};
    }
    int rc;
    do {
        rc = ::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        return Error{Errc::CacheIo,
                     "connect(" + host + ":" + std::to_string(port) +
                         ") failed: " +
                         std::string(std::strerror(errno))};
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof one);
    return fd;
}

/** Accept one connection; retries EINTR. @return -1 when the listener
 * was closed (the clean-shutdown path) or errored. */
inline int
netAccept(int listen_fd)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0)
            return fd;
        if (errno == EINTR)
            continue;
        return -1;
    }
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
