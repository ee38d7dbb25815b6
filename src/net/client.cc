#include "net/client.hh"

#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/timer.hh"

namespace lll::net
{

using util::ErrorCode;
using util::Result;
using util::Status;

BlockingClient::~BlockingClient()
{
    close();
}

BlockingClient::BlockingClient(BlockingClient &&other) noexcept
    : fd_(other.fd_), rx_(std::move(other.rx_))
{
    other.fd_ = -1;
}

BlockingClient &
BlockingClient::operator=(BlockingClient &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        rx_ = std::move(other.rx_);
        other.fd_ = -1;
    }
    return *this;
}

Result<BlockingClient>
BlockingClient::connect(const Result<SocketAddress> &addr)
{
    if (!addr.ok())
        return addr.status();
    const int fd = ::socket(addr->family(), SOCK_STREAM, 0);
    if (fd < 0) {
        return Status::error(ErrorCode::IoError, "socket: %s",
                             strerror(errno));
    }
    if (::connect(fd, addr->get(), addr->size) < 0) {
        Status s = Status::error(ErrorCode::IoError, "connect %s: %s",
                                 addr->name.c_str(), strerror(errno));
        ::close(fd);
        return s;
    }
    return BlockingClient(fd);
}

Result<BlockingClient>
BlockingClient::connectTcp(const std::string &host, int port)
{
    Result<BlockingClient> client = connect(inetAddress(host, port));
    if (client.ok()) {
        const int one = 1;
        ::setsockopt(client->fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
    }
    return client;
}

Result<BlockingClient>
BlockingClient::connectUnix(const std::string &path)
{
    return connect(unixAddress(path));
}

Status
BlockingClient::sendAll(const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::error(ErrorCode::IoError, "send: %s",
                                 strerror(errno));
        }
        off += size_t(n);
    }
    return Status::okStatus();
}

Result<std::string>
BlockingClient::recvLine(int timeout_ms)
{
    const obs::WallClock::time_point start = obs::WallClock::now();
    std::string line;
    Status err;
    for (;;) {
        const FrameDecoder::Next next = rx_.next(&line, &err);
        if (next == FrameDecoder::Next::Frame)
            return line;
        if (next == FrameDecoder::Next::Error)
            return err.withContext("reading a response");

        const double elapsed_ms =
            obs::wallDeltaNs(start, obs::WallClock::now()) / 1e6;
        const int remaining = timeout_ms - int(elapsed_ms);
        if (remaining <= 0) {
            return Status::error(ErrorCode::DeadlineExceeded,
                                 "no response line within %d ms",
                                 timeout_ms);
        }
        pollfd pfd{fd_, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, remaining);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return Status::error(ErrorCode::IoError, "poll: %s",
                                 strerror(errno));
        }
        if (rc == 0)
            continue; // loop re-checks the deadline
        char buf[65536];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::error(ErrorCode::IoError, "recv: %s",
                                 strerror(errno));
        }
        if (n == 0) {
            return Status::error(ErrorCode::IoError,
                                 "server closed the connection");
        }
        rx_.feed(buf, size_t(n));
    }
}

void
BlockingClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace lll::net
