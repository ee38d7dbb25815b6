/**
 * @file
 * The socket plumbing the listener and its clients share: building an
 * IPv4 or unix-domain address, switching a descriptor to non-blocking,
 * and flushing a non-blocking output buffer.
 */

#ifndef LLL_NET_SOCKET_HH
#define LLL_NET_SOCKET_HH

#include <string>
#include <sys/socket.h>

#include "util/status.hh"

namespace lll::net
{

/** A stream socket address, ready for bind() or connect(). */
struct SocketAddress
{
    sockaddr_storage storage{};
    socklen_t size = 0;
    std::string name; //!< "HOST:PORT" or the unix path, for messages

    int family() const { return storage.ss_family; }
    const sockaddr *get() const
    {
        return reinterpret_cast<const sockaddr *>(&storage);
    }
};

/** The IPv4 address @p host:@p port; InvalidArgument when @p host is
 *  not a dotted quad. */
[[nodiscard]] util::Result<SocketAddress> inetAddress(const std::string &host,
                                                      int port);

/** The unix-domain address @p path; InvalidArgument when it does not
 *  fit in sun_path. */
[[nodiscard]] util::Result<SocketAddress> unixAddress(const std::string &path);

/** Set O_NONBLOCK on @p fd; IoError when fcntl fails. */
[[nodiscard]] util::Status setNonBlocking(int fd);

/**
 * Send @p *buf from @p *off on the non-blocking socket @p fd until it
 * is all out or the socket would block, retrying EINTR; empties the
 * buffer once all of it is sent.  @p *sent is the bytes this call sent,
 * also when it fails.  IoError for any send() failure but EAGAIN (the
 * peer is gone).
 */
[[nodiscard]] util::Status flushNonBlocking(int fd, std::string *buf,
                                            size_t *off, size_t *sent);

} // namespace lll::net

#endif // LLL_NET_SOCKET_HH
