/**
 * @file
 * The in-process side of the socket front-end: a small blocking
 * JSON-lines client (BlockingClient) and a listener on a thread of its
 * own to point it at (LocalServer).  Together they are the one harness
 * under tests/test_net.cc and the `lll selftest` listener fault
 * scenarios; the bench-serve load generator shares the client's
 * connect path.  Deliberately simple: one fd, blocking connect,
 * poll-bounded reads through the listener's own FrameDecoder.
 */

#ifndef LLL_NET_CLIENT_HH
#define LLL_NET_CLIENT_HH

#include <memory>
#include <string>
#include <thread>

#include "core/sweep.hh"
#include "net/frame.hh"
#include "net/listener.hh"
#include "net/socket.hh"
#include "util/status.hh"

namespace lll::net
{

/** The longest response line a client reads, and so the most it
 *  buffers of one line.  No response of this server comes near it: a
 *  search response carries only its frontier. */
inline constexpr size_t kMaxResponseLineBytes = size_t(64) << 20;

class BlockingClient
{
  public:
    BlockingClient() = default;
    ~BlockingClient();

    BlockingClient(BlockingClient &&other) noexcept;
    BlockingClient &operator=(BlockingClient &&other) noexcept;
    BlockingClient(const BlockingClient &) = delete;
    BlockingClient &operator=(const BlockingClient &) = delete;

    [[nodiscard]] static util::Result<BlockingClient> connectTcp(
        const std::string &host, int port);
    [[nodiscard]] static util::Result<BlockingClient> connectUnix(
        const std::string &path);

    /** Write all of @p data, retrying partial writes and EINTR. */
    [[nodiscard]] util::Status sendAll(const std::string &data);

    /**
     * One response line (without its newline; blank lines skipped).
     * Blocks up to @p timeout_ms; DeadlineExceeded on timeout, IoError
     * when the server closes first, InvalidArgument on a line over
     * kMaxResponseLineBytes.
     */
    [[nodiscard]] util::Result<std::string> recvLine(int timeout_ms);

    /** Abrupt close (mid-request disconnect scenarios). */
    void close();

    int fd() const { return fd_; }

  private:
    explicit BlockingClient(int fd) : fd_(fd) {}

    [[nodiscard]] static util::Result<BlockingClient> connect(
        const util::Result<SocketAddress> &addr);

    int fd_ = -1;
    FrameDecoder rx_{kMaxResponseLineBytes};
};

/**
 * A Listener on an ephemeral loopback TCP port (and on
 * `params.unixPath` when one is set), with run() on a thread of its
 * own.  Without a `params.handler` it serves a ServeHandler over a
 * private ResultCache.  When start() fails no thread runs, and
 * connect() and stop() return that failure.
 */
class LocalServer
{
  public:
    explicit LocalServer(ListenerParams params);
    ~LocalServer();

    LocalServer(const LocalServer &) = delete;
    LocalServer &operator=(const LocalServer &) = delete;

    /** A TCP connection to the server, or the start failure. */
    [[nodiscard]] util::Result<BlockingClient> connect();

    /** The bound TCP port. */
    int port() const { return listener_->tcpPort(); }

    /** The thread running the event loop (no thread once stopped). */
    std::thread::id loopThread() const { return thread_.get_id(); }

    /** Drain and join the run() thread; run()'s status, or the start
     *  failure.  A second call returns the same status. */
    [[nodiscard]] util::Status stop();

    /** The listener's registry and one of its counters.  Read them
     *  only after stop(): the event loop owns them while it runs. */
    obs::MetricRegistry &registry() { return listener_->registry(); }
    uint64_t counter(const char *name)
    {
        return registry().counter(name).value();
    }

  private:
    core::ResultCache cache_;
    std::unique_ptr<Listener> listener_;
    util::Status startStatus_;
    util::Status runStatus_;
    std::thread thread_;
};

} // namespace lll::net

#endif // LLL_NET_CLIENT_HH
