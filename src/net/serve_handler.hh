/**
 * @file
 * The bridge from the socket listener to the run service: a Handler
 * (listener.hh) that serves exactly one request line per call on
 * whatever worker thread the listener picked, or on the event loop.
 * It opts in to the loop (HandlerResult::loopSafe) with every result,
 * so any callable that forwards its results gets the same: on the loop
 * it answers through RunService::answerWithoutBlocking() — parse and
 * admission outcomes, and run requests whose stage is a cache hit on a
 * loaded, unchanged, valid profile — and declines the rest, leaving no
 * trace, for a worker to serve as before.
 *
 * Byte-identity contract: admitted responses are rendered by the same
 * service::serveLines() + renderRunResponse() pair as the
 * `lll serve --batch` stdin path, with the connection's request number
 * as the line number — so a response observed over a socket is
 * byte-identical to the one the same request yields in a batch file
 * (tests/test_net.cc asserts this).
 *
 * Thread safety: each call builds its own RunService over the shared
 * core::ResultCache (which is internally synchronized) and records its
 * telemetry into workerRegistry(): the calling worker's own, the
 * listener's on the event loop, none off the listener — the registry
 * type itself is not thread-safe, so no registry is ever shared
 * between threads.
 */

#ifndef LLL_NET_SERVE_HANDLER_HH
#define LLL_NET_SERVE_HANDLER_HH

#include "core/sweep.hh"
#include "net/listener.hh"

namespace lll::net
{

struct ServeHandlerParams
{
    /** Shared stage memo (thread-safe); nullptr serves uncached. */
    core::ResultCache *cache = nullptr;

    /** Render per-request "timing" objects into response lines.
     *  Breaks cold/warm byte-identity, so it defaults off (mirrors
     *  `lll serve --request-telemetry`). */
    bool requestTelemetry = false;
};

/** Copyable callable satisfying net::Handler. */
class ServeHandler
{
  public:
    explicit ServeHandler(ServeHandlerParams params) : params_(params) {}

    HandlerResult operator()(const std::string &line,
                             uint64_t req_no) const;

  private:
    ServeHandlerParams params_;
};

} // namespace lll::net

#endif // LLL_NET_SERVE_HANDLER_HH
