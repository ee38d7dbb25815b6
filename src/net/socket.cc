#include "net/socket.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/un.h>

namespace lll::net
{

using util::ErrorCode;
using util::Result;
using util::Status;

Result<SocketAddress>
inetAddress(const std::string &host, int port)
{
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(uint16_t(port));
    if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
        return Status::error(ErrorCode::InvalidArgument,
                             "bad host '%s' (IPv4 dotted quad expected)",
                             host.c_str());
    }
    SocketAddress addr;
    std::memcpy(&addr.storage, &sa, sizeof(sa));
    addr.size = sizeof(sa);
    addr.name = host + ":" + std::to_string(port);
    return addr;
}

Result<SocketAddress>
unixAddress(const std::string &path)
{
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.size() >= sizeof(sa.sun_path)) {
        return Status::error(ErrorCode::InvalidArgument,
                             "unix socket path longer than %zu bytes",
                             sizeof(sa.sun_path) - 1);
    }
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    SocketAddress addr;
    std::memcpy(&addr.storage, &sa, sizeof(sa));
    addr.size = sizeof(sa);
    addr.name = path;
    return addr;
}

Status
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        return Status::error(ErrorCode::IoError, "fcntl(O_NONBLOCK): %s",
                             strerror(errno));
    }
    return Status::okStatus();
}

Status
flushNonBlocking(int fd, std::string *buf, size_t *off, size_t *sent)
{
    *sent = 0;
    while (*off < buf->size()) {
        const ssize_t n = ::send(fd, buf->data() + *off, buf->size() - *off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break; // poll for POLLOUT
            return Status::error(ErrorCode::IoError, "send: %s",
                                 strerror(errno));
        }
        *off += size_t(n);
        *sent += size_t(n);
    }
    if (*off == buf->size()) {
        buf->clear();
        *off = 0;
    }
    return Status::okStatus();
}

} // namespace lll::net
