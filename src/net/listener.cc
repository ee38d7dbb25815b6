#include "net/listener.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "net/frame.hh"
#include "net/socket.hh"
#include "obs/span.hh"
#include "obs/timer.hh"
#include "service/service.hh"
#include "util/names.hh"

namespace lll::net
{

using obs::WallClock;
using util::ErrorCode;
using util::Result;
using util::Status;

util::Status
parseHostPort(const std::string &addr, std::string *host, int *port)
{
    const size_t colon = addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= addr.size()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "listen address wants HOST:PORT, got '%s'",
                             addr.c_str());
    }
    char *end = nullptr;
    const long p = std::strtol(addr.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || p < 0 || p > 65535) {
        return Status::error(ErrorCode::InvalidArgument,
                             "bad port in listen address '%s'",
                             addr.c_str());
    }
    *host = addr.substr(0, colon);
    *port = int(p);
    return Status::okStatus();
}

namespace
{

double
msSince(WallClock::time_point t, WallClock::time_point now)
{
    return obs::wallDeltaNs(t, now) / 1e6;
}

/** Render the structured response for a request the service never
 *  saw: shed (Unavailable) or a fatal framing error.  Same schema as
 *  every other response line; positional id, data null. */
std::string
outOfBandResponse(uint64_t req_no, const Status &status)
{
    service::RunResponse resp;
    resp.id = "#" + std::to_string(req_no);
    resp.status = status;
    return service::renderRunResponse(resp);
}

/** The registry a handler on this thread records into. */
thread_local obs::MetricRegistry *tWorkerRegistry = nullptr;
/** This thread is the event loop, calling a handler. */
thread_local bool tOnEventLoop = false;

/**
 * The event loop calling a handler, for the scope's lifetime:
 * onEventLoop() is true, workerRegistry() is the listener's registry,
 * and spans go to a tracker of the loop's own — never the loop
 * thread's, which may be exported (`lll serve --json`), just as a
 * worker's spans stay on the worker.
 */
class LoopCall
{
  public:
    LoopCall(obs::MetricRegistry *reg, obs::SpanTracker &spans)
        : previous_(tWorkerRegistry), redirect_(spans)
    {
        tWorkerRegistry = reg;
        tOnEventLoop = true;
    }
    ~LoopCall()
    {
        tOnEventLoop = false;
        tWorkerRegistry = previous_;
    }
    LoopCall(const LoopCall &) = delete;
    LoopCall &operator=(const LoopCall &) = delete;

  private:
    obs::MetricRegistry *previous_;
    obs::SpanTracker::Redirect redirect_;
};

/** True when a server accepts connections on the unix socket at
 *  @p addr; false for a stale socket file nobody listens on. */
bool
unixSocketAnswers(const SocketAddress &addr)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return false;
    const int rc = ::connect(fd, addr.get(), addr.size);
    // A full backlog (EAGAIN) is a live server too.
    const bool live = rc == 0 || errno == EAGAIN || errno == EINPROGRESS;
    ::close(fd);
    return live;
}

/** The net.* metrics every request touches, resolved by name once per
 *  run instead of once per use: std::map nodes never move, so the
 *  references stay valid for the registry's lifetime. */
struct RequestMetrics
{
    explicit RequestMetrics(obs::MetricRegistry &r)
        : received(r.counter(util::names::kNetRequestsReceivedTotal)),
          admitted(r.counter(util::names::kNetRequestsAdmittedTotal)),
          shed(r.counter(util::names::kNetRequestsShedTotal)),
          answeredOnLoop(
              r.counter(util::names::kNetRequestsAnsweredOnLoopTotal)),
          failed(r.counter(util::names::kNetRequestsFailedTotal)),
          responses(r.counter(util::names::kNetResponsesTotal)),
          bytesRead(r.counter(util::names::kNetBytesReadTotal)),
          bytesWritten(r.counter(util::names::kNetBytesWrittenTotal)),
          inflight(r.setGauge(util::names::kNetInflight, 0.0)),
          queueWaitNs(r.histogram(util::names::kNetLatencyQueueWaitNs)),
          handlerNs(r.histogram(util::names::kNetLatencyHandlerNs)),
          requestNs(r.histogram(util::names::kNetLatencyRequestNs))
    {
    }

    obs::CounterMetric &received;
    obs::CounterMetric &admitted;
    obs::CounterMetric &shed;
    obs::CounterMetric &answeredOnLoop;
    obs::CounterMetric &failed;
    obs::CounterMetric &responses;
    obs::CounterMetric &bytesRead;
    obs::CounterMetric &bytesWritten;
    obs::GaugeMetric &inflight;
    obs::Log2Histogram &queueWaitNs;
    obs::Log2Histogram &handlerNs;
    obs::Log2Histogram &requestNs;
};

} // namespace

obs::MetricRegistry *
workerRegistry()
{
    return tWorkerRegistry;
}

bool
onEventLoop()
{
    return tOnEventLoop;
}

struct Listener::Impl
{
    explicit Impl(ListenerParams p) : params(std::move(p)) {}

    // ---- configuration + registry --------------------------------
    ListenerParams params;
    obs::MetricRegistry ownedRegistry;
    obs::MetricRegistry *reg = nullptr;
    std::unique_ptr<RequestMetrics> m; //!< handles into *reg

    // ---- sockets --------------------------------------------------
    int tcpFd = -1;
    int unixFd = -1;
    bool unixBound = false; //!< this listener made the file at unixPath
    dev_t unixDev = 0;      //!< ... with this device and inode
    ino_t unixIno = 0;
    int wakeRead = -1;
    int wakeWrite = -1;
    int boundPort = 0;
    bool started = false;

    // ---- worker pool ---------------------------------------------
    struct Task
    {
        uint64_t connId = 0;
        uint64_t reqNo = 0;
        std::string line;
        WallClock::time_point admitted;
    };
    struct Completion
    {
        uint64_t connId = 0;
        uint64_t reqNo = 0;
        HandlerResult result;
        WallClock::time_point admitted;
        double queueWaitNs = 0.0;
        double handlerNs = 0.0;
    };
    std::mutex taskMu;
    std::condition_variable taskCv;
    std::deque<Task> tasks;
    bool tasksClosed = false;
    std::mutex compMu;
    std::deque<Completion> completions;
    /** The loop's side of `completions`: swapped with it, then
     *  emptied, so a wakeup allocates nothing. */
    std::deque<Completion> completionBatch;
    std::vector<std::thread> workerThreads;
    /** One registry per worker for its lifetime (a deque, so the
     *  addresses stay put); merged into *reg after the workers join. */
    std::deque<obs::MetricRegistry> workerRegistries;

    // ---- connections ---------------------------------------------
    struct Conn
    {
        uint64_t id = 0;
        int fd = -1;
        FrameDecoder decoder;
        uint64_t nextReq = 1;  //!< next request number to assign
        uint64_t nextSend = 1; //!< next request number to respond to
        std::map<uint64_t, std::string> ready; //!< out-of-order done
        size_t outstanding = 0; //!< admitted, not yet responded
        std::string outbuf;
        size_t outoff = 0;
        bool readPaused = false;
        bool eofSeen = false;   //!< client half-closed; flush + close
        bool wantClose = false; //!< close once flushed + drained
        bool partialActive = false;
        WallClock::time_point partialSince;
        WallClock::time_point lastActivity;

        explicit Conn(size_t max_frame) : decoder(max_frame) {}

        /** Nothing admitted, waiting its turn or unflushed. */
        bool settled() const
        {
            return outstanding == 0 && ready.empty() &&
                   outoff == outbuf.size();
        }
    };
    std::map<uint64_t, Conn> conns;
    uint64_t nextConnId = 1;
    size_t inflight = 0;

    // ---- answers on the loop -------------------------------------
    bool handlerOptedIn = false; //!< a completion had loopSafe set
    obs::SpanTracker loopSpans;  //!< spans of handler calls on the loop

    // ---- lifecycle -----------------------------------------------
    std::atomic<int> shutdownSignals{0};
    bool draining = false;
    WallClock::time_point drainStart;
    WallClock::time_point lastProgress;
    uint64_t responsesWritten = 0;

    // ================================================================

    obs::CounterMetric &counter(const char *name)
    {
        return reg->counter(name);
    }

    void workerLoop()
    {
        for (;;) {
            Task task;
            {
                std::unique_lock<std::mutex> lock(taskMu);
                taskCv.wait(lock, [this] {
                    return tasksClosed || !tasks.empty();
                });
                if (tasks.empty())
                    return; // closed and drained
                task = std::move(tasks.front());
                tasks.pop_front();
            }
            Completion c;
            c.connId = task.connId;
            c.reqNo = task.reqNo;
            c.admitted = task.admitted;
            const WallClock::time_point picked = WallClock::now();
            c.queueWaitNs = obs::wallDeltaNs(task.admitted, picked);
            c.result = params.handler(task.line, task.reqNo);
            c.handlerNs = obs::wallDeltaNs(picked, WallClock::now());
            bool first;
            {
                std::lock_guard<std::mutex> lock(compMu);
                first = completions.empty();
                completions.push_back(std::move(c));
            }
            // Only the completion that makes the queue non-empty has to
            // wake the loop: the loop takes the whole queue at once.
            if (first)
                wake();
        }
    }

    void wake()
    {
        const char b = 'c';
        // The pipe is O_NONBLOCK; a full pipe already guarantees a
        // pending wakeup, so a short/failed write is fine.
        [[maybe_unused]] ssize_t n = ::write(wakeWrite, &b, 1);
    }

    /** Bind, listen and go non-blocking on @p addr into @p *fd;
     *  @p *bound (when given) is set once bind() succeeds. */
    static Status listenOn(const Result<SocketAddress> &addr, int *fd,
                           bool *bound = nullptr)
    {
        if (!addr.ok())
            return addr.status();
        *fd = ::socket(addr->family(), SOCK_STREAM, 0);
        if (*fd < 0) {
            return Status::error(ErrorCode::IoError, "socket: %s",
                                 strerror(errno));
        }
        // Lets a restarted server rebind a TCP port still in TIME_WAIT;
        // a unix socket ignores it.
        const int one = 1;
        ::setsockopt(*fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(*fd, addr->get(), addr->size) < 0) {
            return Status::error(ErrorCode::IoError, "bind %s: %s",
                                 addr->name.c_str(), strerror(errno));
        }
        if (bound)
            *bound = true;
        if (::listen(*fd, 128) < 0) {
            return Status::error(ErrorCode::IoError, "listen: %s",
                                 strerror(errno));
        }
        return setNonBlocking(*fd);
    }

    Status bindEndpoints()
    {
        if (params.tcpPort >= 0) {
            LLL_RETURN_IF_ERROR(listenOn(
                inetAddress(params.tcpHost, params.tcpPort), &tcpFd));
            sockaddr_in bound;
            socklen_t len = sizeof(bound);
            if (::getsockname(tcpFd, reinterpret_cast<sockaddr *>(&bound),
                              &len) == 0)
                boundPort = ntohs(bound.sin_port);
        }
        if (!params.unixPath.empty()) {
            const char *path = params.unixPath.c_str();
            const Result<SocketAddress> addr = unixAddress(params.unixPath);
            if (!addr.ok())
                return addr.status();
            // Only a stale socket file (an earlier server's, nobody
            // listening) is replaced; a live server's socket and any
            // other file at the path are left alone.
            struct stat st{};
            if (::lstat(path, &st) == 0) {
                if (!S_ISSOCK(st.st_mode)) {
                    return Status::error(ErrorCode::IoError,
                                         "unix socket path %s exists and "
                                         "is not a socket",
                                         path);
                }
                if (unixSocketAnswers(*addr)) {
                    return Status::error(ErrorCode::IoError,
                                         "unix socket path %s is in use",
                                         path);
                }
                ::unlink(path);
            }
            const Status listening = listenOn(addr, &unixFd, &unixBound);
            if (unixBound && ::lstat(path, &st) == 0) {
                unixDev = st.st_dev;
                unixIno = st.st_ino;
            }
            LLL_RETURN_IF_ERROR(listening);
        }
        return Status::okStatus();
    }

    Status start()
    {
        if (!params.handler) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "listener needs a handler");
        }
        if (params.tcpPort < 0 && params.unixPath.empty()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "listener needs a TCP port or a unix "
                                 "socket path");
        }
        for (const int ms : {params.idleTimeoutMs, params.readTimeoutMs,
                             params.watchdogMs, params.drainGraceMs}) {
            if (ms <= 0) {
                return Status::error(ErrorCode::InvalidArgument,
                                     "listener timeouts must be >= 1 ms "
                                     "(got %d)", ms);
            }
        }
        if (params.workers < 1 || params.maxPipelined < 1) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "listener needs at least one worker and "
                                 "one pipelined request per connection "
                                 "(got %d and %zu)",
                                 params.workers, params.maxPipelined);
        }
        reg = params.registry ? params.registry : &ownedRegistry;
        m = std::make_unique<RequestMetrics>(*reg);

        int pipefd[2];
        if (::pipe(pipefd) < 0) {
            return Status::error(ErrorCode::IoError, "pipe: %s",
                                 strerror(errno));
        }
        wakeRead = pipefd[0];
        wakeWrite = pipefd[1];
        LLL_RETURN_IF_ERROR(setNonBlocking(wakeRead));
        LLL_RETURN_IF_ERROR(setNonBlocking(wakeWrite));

        Status bound = bindEndpoints();
        if (!bound.ok()) {
            closeFds();
            return bound;
        }
        workerRegistries.resize(size_t(params.workers));
        for (obs::MetricRegistry &wr : workerRegistries) {
            workerThreads.emplace_back([this, &wr] {
                tWorkerRegistry = &wr;
                workerLoop();
            });
        }
        started = true;
        return Status::okStatus();
    }

    /** Close the listening endpoints and unlink the socket file this
     *  listener bound, unless another file has replaced it since.  The
     *  wake pipe stays open: requestShutdown() may still write it from
     *  another thread until the Listener is destroyed. */
    void closeListeners()
    {
        for (int *fd : {&tcpFd, &unixFd}) {
            if (*fd >= 0) {
                ::close(*fd);
                *fd = -1;
            }
        }
        if (unixBound) {
            struct stat st{};
            if (::lstat(params.unixPath.c_str(), &st) == 0 &&
                st.st_dev == unixDev && st.st_ino == unixIno)
                ::unlink(params.unixPath.c_str());
            unixBound = false;
        }
    }

    void closeFds()
    {
        closeListeners();
        for (int *fd : {&wakeRead, &wakeWrite}) {
            if (*fd >= 0) {
                ::close(*fd);
                *fd = -1;
            }
        }
    }

    void stopWorkers()
    {
        {
            std::lock_guard<std::mutex> lock(taskMu);
            tasksClosed = true;
        }
        taskCv.notify_all();
        for (std::thread &t : workerThreads)
            t.join();
        workerThreads.clear();
    }

    /** Fold the joined workers' telemetry into *reg, in worker order. */
    void mergeWorkerTelemetry()
    {
        for (const obs::MetricRegistry &wr : workerRegistries)
            reg->mergeFrom(wr);
    }

    // ---- connection plumbing -------------------------------------

    void teardown(uint64_t conn_id, const char *reason_counter)
    {
        auto it = conns.find(conn_id);
        if (it == conns.end())
            return;
        ::close(it->second.fd);
        conns.erase(it);
        counter(util::names::kNetConnsClosedTotal)++;
        counter(reason_counter)++;
        reg->setGauge(util::names::kNetConnsActive, double(conns.size()));
    }

    void acceptFrom(int lfd)
    {
        for (;;) {
            const int cfd = ::accept(lfd, nullptr, nullptr);
            if (cfd < 0) {
                if (errno == EINTR)
                    continue;
                return; // EAGAIN or transient accept error
            }
            if (conns.size() >= params.maxConns) {
                // Fast, honest rejection beats a backlog the client
                // cannot observe.
                ::close(cfd);
                counter(util::names::kNetConnsRejectedTotal)++;
                continue;
            }
            if (!setNonBlocking(cfd).ok()) {
                ::close(cfd);
                continue;
            }
            if (lfd == tcpFd) {
                const int one = 1;
                ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
            }
            const uint64_t id = nextConnId++;
            auto [it, fresh] =
                conns.emplace(id, Conn(params.maxFrameBytes));
            Conn &conn = it->second;
            conn.id = id;
            conn.fd = cfd;
            conn.lastActivity = WallClock::now();
            counter(util::names::kNetConnsAcceptedTotal)++;
            reg->setGauge(util::names::kNetConnsActive, double(conns.size()));
        }
    }

    /** Move consecutive completed responses into the output buffer. */
    void flushReady(Conn &conn)
    {
        auto it = conn.ready.find(conn.nextSend);
        while (it != conn.ready.end()) {
            conn.outbuf += it->second;
            conn.outbuf += '\n';
            conn.ready.erase(it);
            ++conn.nextSend;
            ++responsesWritten;
            m->responses++;
            it = conn.ready.find(conn.nextSend);
        }
    }

    /** True when the conn was torn down (caller must stop using it). */
    bool attemptWrite(uint64_t conn_id)
    {
        auto cit = conns.find(conn_id);
        if (cit == conns.end())
            return true;
        Conn &conn = cit->second;
        size_t sent = 0;
        const Status flushed =
            flushNonBlocking(conn.fd, &conn.outbuf, &conn.outoff, &sent);
        if (sent > 0) {
            m->bytesWritten.increment(sent);
            conn.lastActivity = WallClock::now();
        }
        if (!flushed.ok()) {
            // EPIPE/ECONNRESET: the client is gone.
            teardown(conn_id, util::names::kNetConnsClosedErrorTotal);
            return true;
        }
        const size_t pending = conn.outbuf.size() - conn.outoff;
        if (pending >= params.maxWriteBuffer) {
            // The client is not reading; its buffer will not shrink.
            teardown(conn_id, util::names::kNetConnsClosedOverflowTotal);
            return true;
        }
        if ((conn.wantClose || conn.eofSeen) && conn.settled()) {
            teardown(conn_id, conn.wantClose
                                  ? util::names::kNetConnsClosedProtocolTotal
                                  : util::names::kNetConnsClosedEofTotal);
            return true;
        }
        maybeResumeRead(conn);
        return false;
    }

    /** Reads resume only when every pause condition has cleared. */
    void maybeResumeRead(Conn &conn)
    {
        if (!conn.readPaused)
            return;
        if (conn.eofSeen || conn.wantClose || draining)
            return;
        if (conn.outstanding >= params.maxPipelined)
            return;
        if (conn.outbuf.size() - conn.outoff >=
            params.maxWriteBuffer / 2)
            return;
        conn.readPaused = false;
        // Frames may already be buffered behind the pause point.
        extractFrames(conn.id);
    }

    void shed(Conn &conn, uint64_t req_no, const char *why)
    {
        m->shed++;
        conn.ready[req_no] = outOfBandResponse(
            req_no,
            Status::error(ErrorCode::Unavailable, "%s — retry later",
                          why));
        flushReady(conn);
    }

    void admit(Conn &conn, uint64_t req_no, std::string line,
               WallClock::time_point now)
    {
        if (inflight == 0)
            lastProgress = now; // arm the watchdog at first admit
        ++inflight;
        ++conn.outstanding;
        m->admitted++;
        m->inflight.set(double(inflight));
        if (handlerOptedIn && answerOnLoop(conn, req_no, line, now))
            return;
        Task task;
        task.connId = conn.id;
        task.reqNo = req_no;
        task.line = std::move(line);
        task.admitted = now;
        {
            std::lock_guard<std::mutex> lock(taskMu);
            tasks.push_back(std::move(task));
        }
        taskCv.notify_one();
    }

    /**
     * Call the opted-in handler on the loop for an admitted request.
     * False when it declined: the request then goes to the workers.
     * The answer waits in `ready` behind any earlier request of the
     * connection still on the pool; the caller writes it out.
     */
    bool answerOnLoop(Conn &conn, uint64_t req_no, const std::string &line,
                      WallClock::time_point admitted)
    {
        Completion c;
        const WallClock::time_point called = WallClock::now();
        {
            LoopCall call(reg, loopSpans);
            c.result = params.handler(line, req_no);
        }
        if (c.result.declined)
            return false;
        const WallClock::time_point now = WallClock::now();
        c.connId = conn.id;
        c.reqNo = req_no;
        c.admitted = admitted;
        c.queueWaitNs = obs::wallDeltaNs(admitted, called);
        c.handlerNs = obs::wallDeltaNs(called, now);
        m->answeredOnLoop++;
        lastProgress = now;
        settle(c, now);
        return true;
    }

    /** Pull every complete frame the pause conditions allow. */
    void extractFrames(uint64_t conn_id)
    {
        auto cit = conns.find(conn_id);
        if (cit == conns.end())
            return;
        Conn &conn = cit->second;
        const WallClock::time_point now = WallClock::now();
        std::string frame;
        Status err;
        while (!conn.readPaused && !conn.wantClose) {
            const FrameDecoder::Next r = conn.decoder.next(&frame, &err);
            if (r == FrameDecoder::Next::NeedMore)
                break;
            if (r == FrameDecoder::Next::Error) {
                // One structured error response, then close: the
                // over-limit line was dropped unread, so the stream
                // cannot be re-synchronized.
                counter(util::names::kNetRequestsMalformedTotal)++;
                conn.ready[conn.nextReq] =
                    outOfBandResponse(conn.nextReq, err);
                ++conn.nextReq;
                conn.wantClose = true;
                flushReady(conn);
                break;
            }
            const uint64_t req_no = conn.nextReq++;
            m->received++;
            if (draining) {
                shed(conn, req_no, "server is draining");
            } else if (inflight >= params.maxInflight) {
                shed(conn, req_no,
                     "server is at its in-flight request capacity");
            } else {
                admit(conn, req_no, std::move(frame), now);
            }
            if (conn.outstanding >= params.maxPipelined ||
                conn.outbuf.size() - conn.outoff >=
                    params.maxWriteBuffer / 2)
                conn.readPaused = true;
        }
        // (Re)start or clear the slow-loris clock.
        if (conn.decoder.hasPartial()) {
            if (!conn.partialActive) {
                conn.partialActive = true;
                conn.partialSince = now;
            }
        } else {
            conn.partialActive = false;
        }
        attemptWrite(conn_id);
    }

    void handleReadable(uint64_t conn_id)
    {
        auto cit = conns.find(conn_id);
        if (cit == conns.end())
            return;
        Conn &conn = cit->second;
        char buf[65536];
        for (;;) {
            const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                teardown(conn_id, util::names::kNetConnsClosedErrorTotal);
                return;
            }
            if (n == 0) {
                // Half-close: stop reading, still deliver what was
                // admitted, then close.  A client that disconnected
                // mid-request simply never gets its responses.
                conn.eofSeen = true;
                conn.readPaused = true;
                if (conn.settled()) {
                    teardown(conn_id, util::names::kNetConnsClosedEofTotal);
                    return;
                }
                break;
            }
            m->bytesRead.increment(uint64_t(n));
            conn.lastActivity = WallClock::now();
            conn.decoder.feed(buf, size_t(n));
            // One chunk per loop iteration keeps one firehose client
            // from starving the rest of the poll set.
            break;
        }
        extractFrames(conn_id);
    }

    /** Account for one finished request and queue its response
     *  line.  The connection it answers, or nullptr when the client
     *  has gone. */
    Conn *settle(Completion &c, WallClock::time_point now)
    {
        --inflight;
        m->inflight.set(double(inflight));
        m->queueWaitNs.sample(c.queueWaitNs);
        m->handlerNs.sample(c.handlerNs);
        m->requestNs.sample(obs::wallDeltaNs(c.admitted, now));
        if (c.result.failed)
            m->failed++;
        handlerOptedIn |= c.result.loopSafe;
        auto cit = conns.find(c.connId);
        if (cit == conns.end()) {
            // The client disconnected while its request ran.
            counter(util::names::kNetResponsesOrphanedTotal)++;
            return nullptr;
        }
        Conn &conn = cit->second;
        --conn.outstanding;
        conn.ready[c.reqNo] = std::move(c.result.line);
        flushReady(conn);
        return &conn;
    }

    void drainCompletions()
    {
        {
            std::lock_guard<std::mutex> lock(compMu);
            completionBatch.swap(completions);
        }
        if (completionBatch.empty())
            return;
        const WallClock::time_point now = WallClock::now();
        lastProgress = now;
        for (Completion &c : completionBatch) {
            Conn *conn = settle(c, now);
            if (conn && !attemptWrite(c.connId))
                maybeResumeRead(*conn);
        }
        completionBatch.clear();
    }

    void watchdogSnapshot(WallClock::time_point now)
    {
        counter(util::names::kNetWatchdogTripsTotal)++;
        std::fprintf(
            stderr,
            "serve watchdog: no request completed for %.0f ms with "
            "%zu in flight — %zu connections, %llu admitted, %llu "
            "shed, %llu responses\n",
            msSince(lastProgress, now), inflight, conns.size(),
            static_cast<unsigned long long>(m->admitted.value()),
            static_cast<unsigned long long>(m->shed.value()),
            static_cast<unsigned long long>(responsesWritten));
        lastProgress = now; // re-arm instead of spamming
    }

    void beginDrain()
    {
        if (draining)
            return;
        draining = true;
        drainStart = WallClock::now();
        closeListeners();
        // Connections stop being read; anything already admitted
        // completes and flushes.
        for (auto &[id, conn] : conns) {
            (void)id;
            conn.readPaused = true;
        }
        std::fprintf(stderr,
                     "serve: draining — %zu in flight, %zu "
                     "connections\n",
                     inflight, conns.size());
    }

    bool drainComplete() const
    {
        return inflight == 0 &&
               std::all_of(conns.begin(), conns.end(), [](const auto &c) {
                   return c.second.settled();
               });
    }

    Status run()
    {
        if (!started) {
            return Status::error(ErrorCode::FailedPrecondition,
                                 "run() before start()");
        }
        lastProgress = WallClock::now();
        std::vector<pollfd> fds;
        std::vector<uint64_t> fdConn; // conn id per pollfd (0 = none)
        Status result = Status::okStatus();
        for (;;) {
            const Wakeup wakeup = passDeadlines();
            if (draining) {
                if (drainComplete())
                    break;
                if (wakeup.drainOverdue) {
                    std::fprintf(stderr,
                                 "serve: drain grace of %d ms "
                                 "exceeded with %zu in flight — "
                                 "closing\n",
                                 params.drainGraceMs, inflight);
                    break;
                }
            }

            fds.clear();
            fdConn.clear();
            fds.push_back({wakeRead, POLLIN, 0});
            fdConn.push_back(0);
            if (tcpFd >= 0) {
                fds.push_back({tcpFd, POLLIN, 0});
                fdConn.push_back(0);
            }
            if (unixFd >= 0) {
                fds.push_back({unixFd, POLLIN, 0});
                fdConn.push_back(0);
            }
            for (auto &[id, conn] : conns) {
                short events = 0;
                if (!conn.readPaused)
                    events |= POLLIN;
                if (conn.outoff < conn.outbuf.size())
                    events |= POLLOUT;
                fds.push_back({conn.fd, events, 0});
                fdConn.push_back(id);
            }

            const int rc = ::poll(fds.data(), nfds_t(fds.size()),
                                  wakeup.pollMs);
            if (rc < 0 && errno != EINTR) {
                result = Status::error(ErrorCode::IoError, "poll: %s",
                                       strerror(errno));
                break;
            }

            // Wake pipe: worker completions and/or shutdown signals.
            if (rc > 0 && (fds[0].revents & POLLIN)) {
                // A short read has emptied the pipe; only a full one
                // needs another read to find out.
                char buf[256];
                while (::read(wakeRead, buf, sizeof(buf)) ==
                       ssize_t(sizeof(buf))) {
                }
            }
            const int signals =
                shutdownSignals.load(std::memory_order_relaxed);
            if (signals >= 2)
                break; // second signal: abandon the drain
            if (signals >= 1)
                beginDrain();

            drainCompletions();

            // Accept + per-connection IO, against a snapshot of the
            // pollfd set (handlers may erase connections).
            for (size_t i = 1; i < fds.size(); ++i) {
                if (fds[i].revents == 0)
                    continue;
                if (fdConn[i] == 0) {
                    if (fds[i].fd == tcpFd || fds[i].fd == unixFd)
                        acceptFrom(fds[i].fd);
                    continue;
                }
                const uint64_t id = fdConn[i];
                auto cit = conns.find(id);
                if (cit == conns.end() || cit->second.fd != fds[i].fd)
                    continue; // torn down earlier this iteration
                if (fds[i].revents & (POLLERR | POLLNVAL)) {
                    teardown(id, util::names::kNetConnsClosedErrorTotal);
                    continue;
                }
                if (fds[i].revents & POLLOUT) {
                    if (attemptWrite(id))
                        continue;
                }
                if (fds[i].revents & (POLLIN | POLLHUP))
                    handleReadable(id);
            }
        }

        // Close every remaining connection, stop the workers.
        for (auto &[id, conn] : conns) {
            (void)id;
            ::close(conn.fd);
        }
        conns.clear();
        reg->setGauge(util::names::kNetConnsActive, 0.0);
        stopWorkers();
        // Workers may have completed work after the loop exited.
        drainCompletions();
        mergeWorkerTelemetry();
        closeListeners();
        return result;
    }

    /** When poll must wake next, and whether the drain ran out of
     *  grace. */
    struct Wakeup
    {
        int pollMs = 0;
        bool drainOverdue = false;
    };

    /**
     * One pass over every deadline: reap the connections past their
     * read (slow-loris) or idle timeout, trip the watchdog, check the
     * drain grace, and work out how long poll may sleep until the
     * nearest deadline; 1 s bounds the sleep so gauge/watchdog upkeep
     * always runs.
     */
    Wakeup passDeadlines()
    {
        const WallClock::time_point now = WallClock::now();
        double next_ms = 1000.0;
        std::vector<std::pair<uint64_t, const char *>> expired;
        for (const auto &[id, conn] : conns) {
            // The idle clock covers both the keep-alive connection with
            // nothing to say and the stalled writer: a client that
            // stops reading freezes lastActivity (successful writes
            // refresh it), so pending output must NOT exempt it.
            double left_ms;
            const char *reason;
            if (conn.partialActive) {
                left_ms = double(params.readTimeoutMs) -
                          msSince(conn.partialSince, now);
                reason = util::names::kNetConnsClosedReadTimeoutTotal;
            } else if (conn.outstanding == 0) {
                left_ms = double(params.idleTimeoutMs) -
                          msSince(conn.lastActivity, now);
                reason = util::names::kNetConnsClosedIdleTotal;
            } else {
                continue;
            }
            if (left_ms < 0.0)
                expired.emplace_back(id, reason);
            else
                next_ms = std::min(next_ms, left_ms);
        }
        for (const auto &[id, reason] : expired)
            teardown(id, reason);
        if (inflight > 0) {
            double left_ms =
                double(params.watchdogMs) - msSince(lastProgress, now);
            if (left_ms < 0.0) {
                watchdogSnapshot(now); // re-arms the watchdog
                left_ms = double(params.watchdogMs);
            }
            next_ms = std::min(next_ms, left_ms);
        }
        Wakeup wakeup;
        if (draining) {
            const double left_ms =
                double(params.drainGraceMs) - msSince(drainStart, now);
            wakeup.drainOverdue = left_ms < 0.0;
            next_ms = std::min(next_ms, std::max(left_ms, 0.0));
        }
        wakeup.pollMs = int(next_ms) + 1;
        return wakeup;
    }
};

Listener::Listener(ListenerParams params)
    : impl_(std::make_unique<Impl>(std::move(params)))
{
}

Listener::~Listener()
{
    if (impl_->started && !impl_->workerThreads.empty())
        impl_->stopWorkers();
    impl_->closeFds();
}

util::Status
Listener::start()
{
    Status s = impl_->start();
    boundPort_ = impl_->boundPort;
    return s;
}

util::Status
Listener::run()
{
    return impl_->run();
}

void
Listener::requestShutdown()
{
    impl_->shutdownSignals.fetch_add(1, std::memory_order_relaxed);
    if (impl_->wakeWrite >= 0)
        impl_->wake();
}

obs::MetricRegistry &
Listener::registry()
{
    return impl_->reg ? *impl_->reg : impl_->ownedRegistry;
}

} // namespace lll::net
