/**
 * @file
 * The load generator behind `lll bench-serve`: N persistent client
 * connections driving a socket front-end at a target rate, measuring
 * what the paper's framework says to measure — throughput λ, latency W
 * and their product — from the *client* side of the listener's
 * admission bound.
 *
 * Each connection runs on its own thread with a non-blocking socket:
 * it keeps up to `pipeline` requests in flight, paces sends to its
 * share of the target QPS (qps 0 floods), and matches responses to
 * requests positionally (the listener guarantees per-connection
 * response order).  A paced request's latency runs from its due time,
 * not its send time, so a pacer that falls behind (full pipeline,
 * stalled server) still reports the backlog wait.  Latencies land in
 * Log2Histograms, split by response class — ok, shed (`unavailable`)
 * and failed — because under deliberate overload the shed p99 and the
 * admitted p99 are different stories and averaging them hides both.
 */

#ifndef LLL_NET_LOADGEN_HH
#define LLL_NET_LOADGEN_HH

#include <string>
#include <vector>

#include "obs/metric.hh"
#include "util/status.hh"

namespace lll::net
{

struct LoadGenParams
{
    /** TCP target (used when unixPath is empty). */
    std::string host = "127.0.0.1";
    int port = 0;

    /** Unix-socket target; non-empty wins over host:port. */
    std::string unixPath;

    /** Concurrent persistent connections. */
    int connections = 4;

    /** Max requests in flight per connection. */
    int pipeline = 4;

    /** Aggregate target request rate; 0 floods (send whenever the
     *  pipeline window has room). */
    double qps = 0.0;

    /** Sending phase length in seconds. */
    double durationS = 5.0;

    /** Request lines (no trailing newline), cycled per send across
     *  each connection.  Must not be empty. */
    std::vector<std::string> requestLines;

    /** After the sending phase, wait this long for stragglers. */
    int drainTimeoutMs = 5000;
};

struct LoadGenReport
{
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t ok = 0;          //!< status.code == "ok"
    uint64_t unavailable = 0; //!< shed by admission control
    uint64_t failed = 0;      //!< any other status code
    uint64_t connectionErrors = 0;

    double wallS = 0.0;        //!< send phase + drain, wall time
    double achievedQps = 0.0;  //!< received / wallS

    obs::Log2Histogram latencyNs;     //!< all responses
    obs::Log2Histogram okLatencyNs;   //!< admitted + succeeded only
    obs::Log2Histogram shedLatencyNs; //!< unavailable only

    /** First few per-connection errors, for diagnostics. */
    std::vector<std::string> errors;
};

/**
 * Run one load-generation session.  Fails (rather than reporting)
 * only when *no* connection could be established or the parameters
 * are unusable; individual connection failures ride in the report.
 */
[[nodiscard]] util::Result<LoadGenReport> runLoadGen(const LoadGenParams &params);

} // namespace lll::net

#endif // LLL_NET_LOADGEN_HH
