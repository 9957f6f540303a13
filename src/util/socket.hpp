/**
 * @file
 * Minimal TCP socket + poll helpers for the networked campaign
 * service (src/serve/net), kept beside atomic_file so every
 * file/byte-transport primitive the serve layer leans on lives in
 * util.
 *
 * Scope is deliberately narrow: numeric IPv4 endpoints (plus the
 * "localhost" alias), blocking connect with a timeout, full-buffer
 * send, and poll()-based readiness — enough for localhost fleets and
 * LAN runner daemons without dragging in name resolution or TLS. All
 * wrappers are EINTR-safe and never throw; callers get -1/false plus
 * errno, because a refused or dropped connection is normal fleet
 * weather the scheduler must absorb, not an exception.
 *
 * Every socket these helpers return is close-on-exec: a process the
 * scheduler spawns (its local runner_daemons) must not inherit a
 * listener or connection, or a peer's connect could land in a backlog
 * that the child holds open and never accepts.
 */

#ifndef AUTOCAT_UTIL_SOCKET_HPP
#define AUTOCAT_UTIL_SOCKET_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace autocat {

/** Close-on-destruct file-descriptor owner (sockets here, but any fd
 *  works). Movable, not copyable; release() hands the fd back. */
class OwnedFd
{
  public:
    OwnedFd() = default;
    explicit OwnedFd(int fd) : fd_(fd) {}
    ~OwnedFd() { reset(); }

    OwnedFd(OwnedFd &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    OwnedFd &
    operator=(OwnedFd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    OwnedFd(const OwnedFd &) = delete;
    OwnedFd &operator=(const OwnedFd &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Close now (idempotent). */
    void reset();

    /** Give up ownership without closing. */
    int
    release()
    {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

  private:
    int fd_ = -1;
};

/** One "host:port" endpoint. Host must be numeric IPv4 or the literal
 *  "localhost"; port 0 is valid only for binding (ephemeral). */
struct TcpEndpoint
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    std::string toString() const;
};

/**
 * Parse "host:port". @throws std::invalid_argument for a missing
 * colon, an unparseable port, or an out-of-range port — endpoint
 * lists come from config files and must fail at parse time, not at
 * first connect.
 */
TcpEndpoint parseTcpEndpoint(const std::string &text);

/**
 * Bind + listen on @p endpoint (port 0 = kernel-assigned ephemeral
 * port, the CI-parallel-safe default). On success returns the
 * listening fd and writes the actual port to @p bound_port. Returns
 * an invalid OwnedFd on failure (errno holds the cause).
 */
OwnedFd tcpListen(const TcpEndpoint &endpoint, std::uint16_t &bound_port,
                  int backlog = 16);

/**
 * Accept one connection, waiting at most @p timeout_ms (-1 = forever,
 * 0 = non-blocking poll). Returns an invalid OwnedFd on timeout or
 * error; EINTR returns early with an invalid fd so callers can check
 * shutdown flags (the runner_daemon SIGTERM path depends on this).
 */
OwnedFd tcpAccept(int listen_fd, int timeout_ms);

/**
 * Connect to @p endpoint with a handshake timeout. Returns an invalid
 * OwnedFd on refusal/timeout/error; the fd comes back in *blocking*
 * mode. @p refused is set when the failure was ECONNREFUSED — the
 * scheduler retires dead daemons on refusal but keeps busy ones.
 */
OwnedFd tcpConnect(const TcpEndpoint &endpoint, int timeout_ms,
                   bool &refused);

/**
 * Write the whole buffer, resuming across EINTR and short writes.
 * Returns false on any error (EPIPE when the peer vanished — callers
 * must have SIGPIPE ignored, see ignoreSigpipe()).
 */
bool sendAll(int fd, const void *data, std::size_t size);

/**
 * Read whatever is available, up to @p size bytes. Returns the byte
 * count, 0 on orderly EOF, and -1 with errno for errors; -1 with
 * errno EAGAIN/EWOULDBLOCK means "nothing right now" on a
 * non-blocking fd. EINTR retries internally.
 */
long recvSome(int fd, void *data, std::size_t size);

/** poll() for readability. True when @p fd has data/EOF pending
 *  within @p timeout_ms. */
bool waitReadable(int fd, int timeout_ms);

/** waitReadable() over several fds: true as soon as any of @p fds has
 *  data/EOF pending, false after @p timeout_ms. With no fds it sleeps
 *  @p timeout_ms. */
bool waitAnyReadable(const std::vector<int> &fds, int timeout_ms);

/** Put @p fd into non-blocking mode; returns false on failure. */
bool setNonBlocking(int fd);

/** Process-wide SIG_IGN for SIGPIPE (idempotent). Every process that
 *  writes to sockets calls this first: a vanished peer must surface
 *  as an EPIPE error code, never a process-killing signal. */
void ignoreSigpipe();

} // namespace autocat

#endif // AUTOCAT_UTIL_SOCKET_HPP
