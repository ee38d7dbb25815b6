/**
 * @file
 * A small blocking JSON-lines client for the socket front-end — the
 * shared plumbing under tests/test_net.cc, the `lll selftest` listener
 * fault scenarios and the bench-serve load generator's connect path.
 * Deliberately simple: one fd, blocking connect, poll-bounded reads
 * through the listener's own FrameDecoder.
 */

#ifndef LLL_NET_CLIENT_HH
#define LLL_NET_CLIENT_HH

#include <string>

#include "net/frame.hh"
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

} // namespace lll::net

#endif // LLL_NET_CLIENT_HH
