/**
 * @file
 * A small blocking JSON-lines client for the socket front-end — the
 * shared plumbing under tests/test_net.cc, the `lll selftest` listener
 * fault scenarios and the bench-serve load generator's setup path.
 * Deliberately simple: one fd, blocking connect, poll-bounded reads.
 */

#ifndef LLL_NET_CLIENT_HH
#define LLL_NET_CLIENT_HH

#include <string>

#include "util/status.hh"

namespace lll::net
{

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
     * One response line (without its newline).  Blocks up to
     * @p timeout_ms; DeadlineExceeded on timeout, IoError when the
     * server closes first.
     */
    [[nodiscard]] util::Result<std::string> recvLine(int timeout_ms);

    /** Half-close: no more writes, reads still work (drain tests). */
    void shutdownWrite();

    /** Abrupt close (mid-request disconnect scenarios). */
    void close();

    int fd() const { return fd_; }

  private:
    explicit BlockingClient(int fd) : fd_(fd) {}

    int fd_ = -1;
    std::string rxbuf_;
};

} // namespace lll::net

#endif // LLL_NET_CLIENT_HH
