#include "net/loadgen.hh"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <deque>
#include <thread>

#include "net/client.hh"
#include "net/socket.hh"
#include "obs/timer.hh"
#include "util/json.hh"

namespace lll::net
{

using obs::WallClock;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace
{

enum class ResponseClass
{
    Ok,
    Unavailable,
    Failed,
};

ResponseClass
classify(const std::string &line)
{
    // Responses come from our own renderer; a line that does not
    // parse or lacks a status is itself a failure.
    Result<util::JsonValue> doc = util::parseJson(line);
    if (!doc.ok())
        return ResponseClass::Failed;
    const util::JsonValue *status = doc->find("status");
    if (status == nullptr || !status->isObject())
        return ResponseClass::Failed;
    Result<std::string> code = status->getStringOr("code", "");
    if (!code.ok())
        return ResponseClass::Failed;
    if (*code == "ok")
        return ResponseClass::Ok;
    if (*code == "unavailable")
        return ResponseClass::Unavailable;
    return ResponseClass::Failed;
}

struct ConnStats
{
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t ok = 0;
    uint64_t unavailable = 0;
    uint64_t failed = 0;
    bool connectionError = false;
    std::string error;
    obs::Log2Histogram lat;
    obs::Log2Histogram okLat;
    obs::Log2Histogram shedLat;
    /** Σ send → receive time, ns; an unanswered request counts until
     *  its connection stops waiting.  Over the wall time, that is the
     *  time-averaged in-flight population L. */
    double inflightNs = 0.0;
};

/** One request on the wire: when it fell due (latency runs from
 *  here) and when it actually went out (in flight from here). */
struct Pending
{
    WallClock::time_point due;
    WallClock::time_point sent;
};

void
runConnection(const LoadGenParams &params, int conn_index,
              WallClock::time_point send_deadline, ConnStats *stats)
{
    Result<BlockingClient> client =
        params.unixPath.empty()
            ? BlockingClient::connectTcp(params.host, params.port)
            : BlockingClient::connectUnix(params.unixPath);
    if (!client.ok()) {
        stats->connectionError = true;
        stats->error = client.status().toString();
        return;
    }
    const int fd = client->fd();
    const Status nonblocking = setNonBlocking(fd);
    if (!nonblocking.ok()) {
        stats->connectionError = true;
        stats->error = nonblocking.toString();
        return;
    }

    // Pacing: each connection sends its 1/connections share of the
    // aggregate target, staggered by index so arrivals interleave.
    const double interval_ns =
        params.qps > 0.0 ? 1e9 * double(params.connections) / params.qps
                         : 0.0;
    WallClock::time_point next_send =
        WallClock::now() +
        std::chrono::nanoseconds(int64_t(
            interval_ns * double(conn_index) /
            double(params.connections > 0 ? params.connections : 1)));

    std::string outbuf;
    size_t outoff = 0;
    FrameDecoder rx(kMaxResponseLineBytes);
    std::string response;
    Status rx_error;
    std::deque<Pending> pending;
    size_t line_idx = size_t(conn_index);
    bool sending = true;
    WallClock::time_point drain_start;

    for (;;) {
        WallClock::time_point now = WallClock::now();
        if (sending && now >= send_deadline) {
            sending = false;
            drain_start = now;
        }

        // Enqueue as many sends as the window and the pacer allow.
        while (sending && pending.size() < size_t(params.pipeline) &&
               (interval_ns == 0.0 || now >= next_send)) {
            const std::string &line =
                params.requestLines[line_idx %
                                    params.requestLines.size()];
            // Connection i sends lines i, i + connections, ...: together
            // the connections send each line once per pass.
            line_idx += size_t(params.connections);
            outbuf += line;
            outbuf += '\n';
            // A paced request is timed from its due time, not the
            // time it went out: when the pacer falls behind, the
            // catch-up burst must still count its backlog wait.
            pending.push_back({interval_ns > 0.0 ? next_send : now, now});
            ++stats->sent;
            if (interval_ns > 0.0) {
                next_send +=
                    std::chrono::nanoseconds(int64_t(interval_ns));
            }
        }

        if (!sending) {
            if (pending.empty())
                break; // every response accounted for
            if (obs::wallDeltaNs(drain_start, now) / 1e6 >
                double(params.drainTimeoutMs)) {
                stats->error = "timed out waiting for " +
                               std::to_string(pending.size()) +
                               " final responses";
                break;
            }
        }

        // Sleep until there is something to do.  The timeout is in
        // nanoseconds: rounding a due time up to poll()'s milliseconds
        // would send every paced request up to 1 ms late.
        double timeout_ns = 100e6;
        if (sending && interval_ns > 0.0 &&
            pending.size() < size_t(params.pipeline)) {
            const double until_ns = obs::wallDeltaNs(now, next_send);
            if (until_ns < timeout_ns)
                timeout_ns = until_ns <= 0.0 ? 0.0 : until_ns;
        }
        const timespec timeout{time_t(timeout_ns / 1e9),
                               long(std::fmod(timeout_ns, 1e9))};
        pollfd pfd{fd,
                   short(POLLIN |
                         (outoff < outbuf.size() ? POLLOUT : 0)),
                   0};
        const int rc = ::ppoll(&pfd, 1, &timeout, nullptr);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            stats->error = std::string("ppoll: ") + strerror(errno);
            break;
        }
        if (rc == 0)
            continue;

        if (pfd.revents & POLLOUT) {
            size_t sent = 0;
            const Status flushed =
                flushNonBlocking(fd, &outbuf, &outoff, &sent);
            if (!flushed.ok()) {
                stats->error = flushed.message();
                break;
            }
        }

        if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
            char buf[65536];
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n < 0) {
                if (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK)
                    continue;
                stats->error = std::string("recv: ") + strerror(errno);
                break;
            }
            if (n == 0) {
                if (!pending.empty()) {
                    stats->error =
                        "server closed with " +
                        std::to_string(pending.size()) +
                        " responses outstanding";
                }
                break;
            }
            rx.feed(buf, size_t(n));
            FrameDecoder::Next next;
            while ((next = rx.next(&response, &rx_error)) ==
                   FrameDecoder::Next::Frame) {
                if (pending.empty())
                    continue;
                const WallClock::time_point at = WallClock::now();
                const double lat_ns =
                    obs::wallDeltaNs(pending.front().due, at);
                stats->inflightNs +=
                    obs::wallDeltaNs(pending.front().sent, at);
                pending.pop_front();
                ++stats->received;
                stats->lat.sample(lat_ns);
                switch (classify(response)) {
                  case ResponseClass::Ok:
                    ++stats->ok;
                    stats->okLat.sample(lat_ns);
                    break;
                  case ResponseClass::Unavailable:
                    ++stats->unavailable;
                    stats->shedLat.sample(lat_ns);
                    break;
                  case ResponseClass::Failed:
                    ++stats->failed;
                    break;
                }
            }
            if (next == FrameDecoder::Next::Error) {
                stats->error = rx_error.message();
                break;
            }
        }
    }
    const WallClock::time_point stop = WallClock::now();
    for (const Pending &p : pending)
        stats->inflightNs += obs::wallDeltaNs(p.sent, stop);
    // client's destructor closes the fd.
}

} // namespace

Result<LoadGenReport>
runLoadGen(const LoadGenParams &params)
{
    if (params.connections < 1) {
        return Status::error(ErrorCode::InvalidArgument,
                             "need at least one connection");
    }
    if (params.pipeline < 1) {
        return Status::error(ErrorCode::InvalidArgument,
                             "pipeline depth must be >= 1");
    }
    if (params.requestLines.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "no request lines to send");
    }
    if (params.durationS <= 0.0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "duration must be positive");
    }

    const WallClock::time_point start = WallClock::now();
    const WallClock::time_point send_deadline =
        start + std::chrono::nanoseconds(
                    int64_t(params.durationS * 1e9));

    std::vector<ConnStats> stats(size_t(params.connections));
    std::vector<std::thread> threads;
    threads.reserve(size_t(params.connections));
    for (int i = 0; i < params.connections; ++i) {
        threads.emplace_back([&params, i, send_deadline, &stats] {
            runConnection(params, i, send_deadline, &stats[size_t(i)]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    LoadGenReport report;
    report.wallS =
        obs::wallDeltaNs(start, WallClock::now()) / 1e9;
    double inflight_ns = 0.0;
    for (const ConnStats &c : stats) {
        report.sent += c.sent;
        report.received += c.received;
        report.ok += c.ok;
        report.unavailable += c.unavailable;
        report.failed += c.failed;
        if (c.connectionError)
            ++report.connectionErrors;
        if (!c.error.empty() && report.errors.size() < 8)
            report.errors.push_back(c.error);
        report.latencyNs.merge(c.lat);
        report.okLatencyNs.merge(c.okLat);
        report.shedLatencyNs.merge(c.shedLat);
        inflight_ns += c.inflightNs;
    }
    report.achievedQps =
        report.wallS > 0.0 ? double(report.received) / report.wallS
                           : 0.0;
    report.inflightAvg =
        report.wallS > 0.0 ? inflight_ns / 1e9 / report.wallS : 0.0;
    report.meanLatencyS = report.latencyNs.mean() / 1e9;
    report.littlesResidual =
        report.inflightAvg > 0.0
            ? std::fabs(report.inflightAvg -
                        report.achievedQps * report.meanLatencyS) /
                  report.inflightAvg
            : 0.0;
    if (report.connectionErrors == uint64_t(params.connections)) {
        return Status::error(
            ErrorCode::IoError, "every connection failed: %s",
            report.errors.empty() ? "unknown error"
                                  : report.errors.front().c_str());
    }
    return report;
}

} // namespace lll::net
