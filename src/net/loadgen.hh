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
#include "util/fields.hh"
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

    /** Request lines (no trailing newline), cycled through: connection
     *  i sends lines i, i + connections, ..., so each line goes out
     *  once per pass.  Must not be empty. */
    std::vector<std::string> requestLines;

    /** After the sending phase, wait this long for stragglers. */
    int drainTimeoutMs = 5000;
};

/** LoadGenParams' command-line flags (util/fields.hh), as `lll
 *  bench-serve` reads them. */
template <class V, util::RecordOf<LoadGenParams> R>
void
visitFields(V &v, R &p)
{
    constexpr util::FieldOpts kCount{.lo = 1, .help = ""};
    constexpr util::FieldOpts kAmount{.lo = 0, .hi = 1e300, .help = ""};
    v("connections", p.connections, kCount);
    v("pipeline", p.pipeline, kCount);
    v("qps", p.qps, kAmount);
    v("duration_s", p.durationS, kAmount);
    v("drain_timeout_ms", p.drainTimeoutMs, kCount);
}

struct LoadGenReport
{
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t ok = 0;          //!< status.code == "ok"
    uint64_t unavailable = 0; //!< shed by admission control
    uint64_t failed = 0;      //!< any other status code
    uint64_t connectionErrors = 0;

    double wallS = 0.0;        //!< send phase + drain, wall time
    double achievedQps = 0.0;  //!< received / wallS: Little's λ

    /**
     * Little's law over the session, L = λW.  L is the time-averaged
     * number of requests actually in flight, from send to receive; W is
     * the mean latency, timed from each request's due time like the
     * histograms.  The two differ by the time requests waited past
     * their due time to be sent, so the residual |L − λW| / L stays
     * near 0 unless the generator fell behind its pacing.
     */
    double inflightAvg = 0.0;     //!< L
    double meanLatencyS = 0.0;    //!< W, seconds
    double littlesResidual = 0.0; //!< |L − λW| / L (0 when L is 0)

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
