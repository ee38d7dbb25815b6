/**
 * @file
 * The socket front-end for the run service (DESIGN.md §14): a poll()
 * event loop multiplexing many persistent client connections onto a
 * bounded worker pool, with the overload posture the paper's own math
 * prescribes.  The loop answers an admitted request itself when its
 * handler has opted in and the answer cannot block (a warm cache
 * hit); only work that can block goes to the pool.  Little's Law
 * applied to this server: the admission bound fixes the in-flight
 * population N, the latency histograms measure W, and once the arrival
 * rate λ exceeds N/W the excess is *shed* — answered immediately with
 * a structured `unavailable` response — instead of queued into
 * collapse.
 *
 * Robustness contract:
 *  - bounded in-flight admission (maxInflight) with structured
 *    shedding, never an unbounded queue;
 *  - per-connection fairness: at most maxPipelined of a connection's
 *    requests may occupy admission slots, and reads pause (TCP
 *    backpressure) once a connection reaches the cap;
 *  - slow clients: per-connection output buffers are bounded — reads
 *    pause at half the cap, the connection is closed at the cap — so
 *    a client that never reads responses cannot grow server memory;
 *  - idle and read (slow-loris) timeouts close dead connections; a
 *    forward-progress watchdog reports a wedged worker pool;
 *  - EINTR/partial-write/SIGPIPE hardened (all socket writes use
 *    MSG_NOSIGNAL);
 *  - drain-on-shutdown: requestShutdown() (wired to SIGTERM/SIGINT by
 *    the CLI) stops accepting, finishes every admitted request,
 *    flushes responses, then returns from run().
 *
 * Responses go out in per-connection request order, so a pipelining
 * client can match responses positionally; admitted responses are
 * byte-identical to the `lll serve --batch` stdin path.
 */

#ifndef LLL_NET_LISTENER_HH
#define LLL_NET_LISTENER_HH

#include <climits>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "util/fields.hh"
#include "util/status.hh"

namespace lll::net
{

/** What a handler produced for one admitted request. */
struct HandlerResult
{
    std::string line;   //!< rendered response (no trailing newline)
    bool failed = false; //!< the request's own status was an error

    /** The handler's opt-in to the event loop: from the first
     *  completion that sets it, the loop calls the handler itself for
     *  each admitted request, under onEventLoop().  A handler that
     *  never sets it only ever runs on the workers. */
    bool loopSafe = false;

    /** On the event loop only: the handler did not answer, because
     *  the answer could block.  The request goes to the worker pool as
     *  if the loop had never called the handler. */
    bool declined = false;
};

/**
 * The request handler, invoked on worker threads — must be callable
 * concurrently — and, once it has opted in (HandlerResult::loopSafe),
 * on the event loop too.  @p req_no is the 1-based request number
 * within its connection (default ids and error context count from
 * it).  Its telemetry goes to workerRegistry().
 */
using Handler =
    std::function<HandlerResult(const std::string &line, uint64_t req_no)>;

/**
 * True while the listener's event loop is calling a handler.  The
 * handler must then answer without blocking — no simulation, no
 * profile load, no sleep, no wait on another thread's work — or
 * decline (HandlerResult::declined), and a declined attempt must leave
 * no telemetry behind.
 */
bool onEventLoop();

/**
 * The telemetry registry a handler records into: the calling worker's
 * own on a listener worker, the listener's registry while the event
 * loop calls the handler, and nullptr on any other thread.  Each
 * worker owns one registry for its lifetime and only the loop touches
 * the listener's until run() returns, so a Handler records without
 * locking; the listener merges every worker's registry into its own
 * after the workers join, before run() returns.
 */
obs::MetricRegistry *workerRegistry();

struct ListenerParams
{
    /** TCP bind address; port < 0 disables TCP, port 0 binds an
     *  ephemeral port readable via Listener::tcpPort(). */
    std::string tcpHost = "127.0.0.1";
    int tcpPort = -1;

    /** Unix-domain socket path; empty disables.  A stale socket file
     *  at the path (no server answers on it) is replaced; start()
     *  refuses a live one ("unix socket path PATH is in use") and any
     *  other file, and leaves them alone.  On close the listener
     *  unlinks the path only while it still holds the file it bound. */
    std::string unixPath;

    /** Worker threads executing admitted requests (>= 1; start()
     *  refuses less). */
    int workers = 1;

    /** Admission bound: requests in flight (queued on the worker pool
     *  or executing) across all connections.  Arrivals beyond it are
     *  shed with `unavailable`; a request the loop answers itself is
     *  admitted and completed at once. */
    size_t maxInflight = 8;

    /** Per-connection cap on admitted-but-unanswered requests (>= 1);
     *  at the cap the connection's reads pause (TCP backpressure) so
     *  one pipelining client cannot monopolize admission slots. */
    size_t maxPipelined = 4;

    /** Concurrent connection cap; excess accepts are closed. */
    size_t maxConns = 256;

    /** Largest accepted request frame (see FrameDecoder). */
    size_t maxFrameBytes = 1u << 20;

    /** Per-connection output buffer cap in bytes: reads pause at half
     *  of it, the connection is closed (overflow) when it is hit. */
    size_t maxWriteBuffer = 4u << 20;

    // Timeouts are in milliseconds and must be >= 1 (start() refuses
    // less).

    /** Close a connection idle (no buffered partial frame, nothing in
     *  flight or unflushed) for this long. */
    int idleTimeoutMs = 30000;

    /** Close a connection whose frame stays incomplete this long —
     *  the slow-loris guard. */
    int readTimeoutMs = 10000;

    /** Forward-progress watchdog: with admitted work in flight but no
     *  completion for this long, dump a diagnostic snapshot to stderr
     *  and count net.watchdog_trips_total. */
    int watchdogMs = 60000;

    /** Drain deadline after requestShutdown(): connections still
     *  unflushed past it are closed anyway. */
    int drainGraceMs = 5000;

    /** Required: the request handler (see ServeHandler). */
    Handler handler;

    /** Receives net.* counters, latency histograms and, once the
     *  workers have joined, their merged telemetry; nullptr uses an
     *  internal registry.  Only the event-loop thread touches it until
     *  run() returns. */
    obs::MetricRegistry *registry = nullptr;
};

/** ListenerParams' command-line flags (util/fields.hh), as `lll serve
 *  --listen` reads them. */
template <class V, util::RecordOf<ListenerParams> R>
void
visitFields(V &v, R &p)
{
    constexpr util::FieldOpts kCount{.lo = 1, .hi = INT_MAX, .help = ""};
    constexpr util::FieldOpts kMs{.lo = 1, .help = ""};
    v("max_inflight", p.maxInflight, kCount);
    v("max_pipelined", p.maxPipelined, kCount);
    v("max_conns", p.maxConns, kCount);
    v("max_line_bytes", p.maxFrameBytes, {.help = ""});
    v("max_write_buffer", p.maxWriteBuffer, {.help = ""});
    v("idle_timeout_ms", p.idleTimeoutMs, kMs);
    v("read_timeout_ms", p.readTimeoutMs, kMs);
    v("watchdog_ms", p.watchdogMs, kMs);
    v("drain_grace_ms", p.drainGraceMs, kMs);
}

class Listener
{
  public:
    explicit Listener(ListenerParams params);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Bind + listen on the configured endpoints and start the worker
     *  pool.  Fails without binding anything on a bad endpoint. */
    [[nodiscard]] util::Status start();

    /**
     * The event loop.  Blocks until requestShutdown() completes a
     * drain (finish admitted work, flush responses).  Returns the
     * first fatal listener error, or OK after a clean drain.
     */
    [[nodiscard]] util::Status run();

    /**
     * Begin drain-and-exit.  Async-signal-safe (one pipe write), so
     * the CLI wires SIGTERM/SIGINT straight to it; callable from any
     * thread.  A second call abandons the drain and exits now.
     */
    void requestShutdown();

    /** The bound TCP port after start() (0 when TCP is disabled). */
    int tcpPort() const { return boundPort_; }

    /** The registry in use (the internal one when params.registry was
     *  null).  Read it only after run() returns. */
    obs::MetricRegistry &registry();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    int boundPort_ = 0;
};

/** "HOST:PORT" → (host, port); InvalidArgument on anything else. */
[[nodiscard]] util::Status parseHostPort(const std::string &addr, std::string *host,
                           int *port);

} // namespace lll::net

#endif // LLL_NET_LISTENER_HH
