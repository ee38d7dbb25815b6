/**
 * @file
 * The run service's front ends: `lll serve` (JSON lines from a batch
 * or stdin, or sockets with --listen, DESIGN.md §12/§14) and `lll
 * bench-serve`, the load generator for the socket front-end.
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hh"
#include "net/listener.hh"
#include "net/loadgen.hh"
#include "net/serve_handler.hh"
#include "service/service.hh"
#include "util/names.hh"

namespace lll::cli
{

namespace
{

/** The p50/p90/p99 of @p h (ns samples) as a JSON object in ms. */
void
writePercentilesMs(util::JsonWriter &w, const obs::Log2Histogram &h)
{
    w.beginObject()
        .precision(6)
        .member("p50", h.percentile(0.50) / 1e6)
        .member("p90", h.percentile(0.90) / 1e6)
        .member("p99", h.percentile(0.99) / 1e6)
        .member("samples", h.total())
        .end();
}

/** The lines of @p path, or of stdin when it is empty. */
util::Result<std::vector<std::string>>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::string line;
    std::ifstream file;
    if (!path.empty()) {
        file.open(path);
        if (!file) {
            return Status::error(ErrorCode::IoError, "cannot read '%s'",
                                 path.c_str());
        }
    }
    std::istream &in = path.empty() ? std::cin : file;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

struct ServeRequest
{
    std::string batch; //!< empty: stdin
    std::string json;
    int jobs = 1;
    bool requestTelemetry = false;
    std::string listen;
    std::string listenUnix;
    CacheFlags cache;
    /** The socket front-end's flags exist only with --listen or
     *  --listen-unix (and on the help page); batch mode refuses
     *  them. */
    bool listening = false;
    net::ListenerParams listener;
};

template <class V, util::RecordOf<ServeRequest> R>
void
visitFields(V &v, R &r)
{
    v("batch", r.batch, kFlag);
    v("json", r.json, kFlag);
    v("jobs", r.jobs, kCount);
    v("request_telemetry", r.requestTelemetry, kFlag);
    v("listen", r.listen, kFlag);
    v("listen_unix", r.listenUnix, kFlag);
    visitFields(v, r.cache);
    if (r.listening)
        visitFields(v, r.listener);
}

net::Listener *g_serveListener = nullptr;

extern "C" void
serveSignalHandler(int)
{
    // requestShutdown is async-signal-safe (atomic bump + pipe write);
    // the second signal abandons the drain and exits immediately.
    if (g_serveListener != nullptr)
        g_serveListener->requestShutdown();
}

/**
 * `lll serve --listen`: the socket front-end (DESIGN.md §14).  One
 * poll() event loop multiplexes persistent TCP/unix connections onto
 * `--jobs` workers behind a bounded admission gate: at most
 * `--max-inflight` requests run or queue at once and the excess is
 * answered immediately with a structured `unavailable` response
 * instead of being buffered toward collapse.  SIGTERM/SIGINT drain:
 * admitted work finishes and flushes, then the process exits 0.
 */
util::Result<Outcome>
runListener(const ServeRequest &r, const Context &ctx,
            core::ResultCache &cache)
{
    net::ListenerParams lp = r.listener;
    if (!r.listen.empty())
        LLL_RETURN_IF_ERROR(
            net::parseHostPort(r.listen, &lp.tcpHost, &lp.tcpPort));
    lp.unixPath = r.listenUnix;
    lp.workers = r.jobs;

    net::ServeHandlerParams hp;
    hp.cache = &cache;
    hp.requestTelemetry = r.requestTelemetry;
    lp.handler = net::ServeHandler(hp);
    obs::MetricRegistry &registry = ctx.registry;
    lp.registry = &registry;

    const std::string tcp_host = lp.tcpHost;
    net::Listener listener(std::move(lp));
    LLL_RETURN_IF_ERROR(listener.start());

    g_serveListener = &listener;
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGINT, serveSignalHandler);
    if (!r.listen.empty()) {
        // Parseable by scripts that bind port 0 (the CI smoke does).
        std::fprintf(stderr, "serve: listening on %s:%d\n",
                     tcp_host.c_str(), listener.tcpPort());
    }
    if (!r.listenUnix.empty()) {
        std::fprintf(stderr, "serve: listening on unix:%s\n",
                     r.listenUnix.c_str());
    }
    std::fflush(stderr);

    Outcome out;
    out.verdict = listener.run();
    g_serveListener = nullptr;
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);

    auto count = [&registry](const char *name) {
        return static_cast<unsigned long long>(
            registry.counter(name).value());
    };
    std::fprintf(
        stderr,
        "serve: %llu requests on %llu connections — %llu admitted, "
        "%llu shed, %llu malformed, %llu failed; request p50/p90/p99 "
        "%s ms, queue wait %s ms\n",
        count(util::names::kNetRequestsReceivedTotal),
        count(util::names::kNetConnsAcceptedTotal),
        count(util::names::kNetRequestsAdmittedTotal),
        count(util::names::kNetRequestsShedTotal),
        count(util::names::kNetRequestsMalformedTotal),
        count(util::names::kNetRequestsFailedTotal),
        obs::percentilesMs(
            registry.histogram(util::names::kNetLatencyRequestNs))
            .c_str(),
        obs::percentilesMs(
            registry.histogram(util::names::kNetLatencyQueueWaitNs))
            .c_str());

    util::JsonWriter w(out.data);
    w.beginObject(Layout::Block)
        .member("requests", count(util::names::kNetRequestsReceivedTotal))
        .member("admitted", count(util::names::kNetRequestsAdmittedTotal))
        .member("shed", count(util::names::kNetRequestsShedTotal))
        .member("malformed", count(util::names::kNetRequestsMalformedTotal))
        .member("failed", count(util::names::kNetRequestsFailedTotal))
        .member("responses", count(util::names::kNetResponsesTotal))
        .key("connections")
        .beginObject()
        .member("accepted", count(util::names::kNetConnsAcceptedTotal))
        .member("rejected", count(util::names::kNetConnsRejectedTotal))
        .member("closed", count(util::names::kNetConnsClosedTotal))
        .end()
        .member("watchdog_trips", count(util::names::kNetWatchdogTripsTotal))
        .key("latency_ms")
        .beginObject()
        .key("request");
    writePercentilesMs(w,
                       registry.histogram(util::names::kNetLatencyRequestNs));
    w.key("queue_wait");
    writePercentilesMs(
        w, registry.histogram(util::names::kNetLatencyQueueWaitNs));
    w.key("handler");
    writePercentilesMs(w,
                       registry.histogram(util::names::kNetLatencyHandlerNs));
    w.end().key("cache");
    writeCacheStats(w, cache.stats());
    w.end();
    out.telemetry = true;
    return out;
}

util::Result<Outcome>
runServe(const ServeRequest &r, const Context &ctx)
{
    core::ResultCache &cache = core::ResultCache::global();
    LLL_RETURN_IF_ERROR(r.cache.applyTo(cache));
    if (!r.listen.empty() || !r.listenUnix.empty()) {
        if (!r.batch.empty()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "--batch and --listen are mutually "
                                 "exclusive");
        }
        return runListener(r, ctx, cache);
    }

    util::Result<std::vector<std::string>> lines = readLines(r.batch);
    if (!lines.ok())
        return lines.status();

    service::RunService::Params sp;
    sp.jobs = r.jobs;
    sp.cache = &cache;
    sp.registry = &ctx.registry;
    service::RunService svc(sp);
    const std::vector<service::RunResponse> responses =
        svc.serveLines(*lines);

    // stdout carries exactly one response line per request — nothing
    // else — so a warm rerun is byte-identical and pipeable; the human
    // summary goes to stderr.  --request-telemetry adds the wall-clock
    // "timing" object per line and therefore opts out of byte
    // identity.
    size_t failed = 0;
    for (const service::RunResponse &resp : responses) {
        if (!resp.status.ok())
            ++failed;
        const std::string rendered =
            service::renderRunResponse(resp, r.requestTelemetry);
        std::fwrite(rendered.data(), 1, rendered.size(), stdout);
        std::fputc('\n', stdout);
    }

    const uint64_t units =
        ctx.registry.counter(util::names::kServiceUnitsTotal).value();
    const uint64_t coalesced =
        ctx.registry.counter(util::names::kServiceCoalescedRequestsTotal)
            .value();
    const core::ResultCache::Stats cs = cache.stats();
    std::fprintf(stderr,
                 "serve: %zu requests (%zu failed), %llu distinct "
                 "units, %llu coalesced — cache: %llu hits, %llu "
                 "misses, %llu evictions, %llu spill evictions\n",
                 responses.size(), failed,
                 static_cast<unsigned long long>(units),
                 static_cast<unsigned long long>(coalesced),
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.evictions),
                 static_cast<unsigned long long>(cs.spillEvictions));

    Outcome out;
    if (failed) {
        out.verdict = Status::error(ErrorCode::FailedPrecondition,
                                    "%zu of %zu requests failed", failed,
                                    responses.size());
    }
    util::JsonWriter w(out.data);
    w.beginObject(Layout::Block)
        .member("requests", responses.size())
        .member("failed", failed)
        .member("units", units)
        .member("coalesced", coalesced)
        .key("cache");
    writeCacheStats(w, cs);
    w.end();
    out.telemetry = true;
    return out;
}

struct BenchServeRequest
{
    std::string connect;
    std::string connectUnix;
    net::LoadGenParams load;
    std::string requests; //!< request-line file; empty: a small default
    std::string json;
};

template <class V, util::RecordOf<BenchServeRequest> R>
void
visitFields(V &v, R &r)
{
    v("connect", r.connect, kFlag);
    v("connect_unix", r.connectUnix, kFlag);
    visitFields(v, r.load);
    v("requests", r.requests, kFlag);
    v("json", r.json, kFlag);
}

Status
decodeOperands(util::ArgParser &, BenchServeRequest &r, const char *)
{
    if (r.connect.empty() && r.connectUnix.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "bench-serve needs --connect HOST:PORT or "
                             "--connect-unix PATH");
    }
    return Status::okStatus();
}

/**
 * `lll bench-serve`: drives `--connections` persistent clients, each
 * keeping up to `--pipeline` requests in flight, at `--qps` aggregate
 * (0 floods) for `--duration-s`, then reports achieved throughput and
 * latency percentiles split by response class — admitted (`ok`) vs
 * shed (`unavailable`) — and checks Little's law on the run: in-flight
 * L against throughput × mean latency.  Shedding is the server working
 * as designed, so it never fails the run; request-level failures or
 * connection errors exit 3.
 */
util::Result<Outcome>
runBenchServe(const BenchServeRequest &r, const Context &ctx)
{
    net::LoadGenParams lg = r.load;
    if (!r.connect.empty())
        LLL_RETURN_IF_ERROR(net::parseHostPort(r.connect, &lg.host, &lg.port));
    lg.unixPath = r.connectUnix;
    if (!r.requests.empty()) {
        util::Result<std::vector<std::string>> lines = readLines(r.requests);
        if (!lines.ok())
            return lines.status();
        for (std::string &line : *lines) {
            if (line.find_first_not_of(" \t\r") != std::string::npos)
                lg.requestLines.push_back(std::move(line));
        }
        if (lg.requestLines.empty()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "'%s' has no request lines",
                                 r.requests.c_str());
        }
    } else {
        // A small, fast request so the default run exercises the
        // server rather than one giant simulation.
        core::StageRequest request;
        request.platformName = "skl";
        request.workloadName = "isx";
        request.cores = 6;
        request.warmupUs = 5;
        request.measureUs = 10;
        lg.requestLines = {core::requestLine(request)};
    }

    std::signal(SIGPIPE, SIG_IGN);
    util::Result<net::LoadGenReport> rep = net::runLoadGen(lg);
    if (!rep.ok())
        return rep.status();

    std::fprintf(ctx.report,
                 "bench-serve: %llu sent, %llu received in %.2f s — "
                 "%.1f req/s achieved\n",
                 static_cast<unsigned long long>(rep->sent),
                 static_cast<unsigned long long>(rep->received),
                 rep->wallS, rep->achievedQps);
    std::fprintf(ctx.report, "  ok          %8llu  p50/p90/p99 %s ms\n",
                 static_cast<unsigned long long>(rep->ok),
                 obs::percentilesMs(rep->okLatencyNs).c_str());
    std::fprintf(ctx.report, "  unavailable %8llu  p50/p90/p99 %s ms\n",
                 static_cast<unsigned long long>(rep->unavailable),
                 obs::percentilesMs(rep->shedLatencyNs).c_str());
    std::fprintf(ctx.report, "  failed      %8llu\n",
                 static_cast<unsigned long long>(rep->failed));
    std::fprintf(ctx.report,
                 "  Little's law: L %.3f in flight vs λW %.3f (λ %.1f "
                 "req/s, W %.3f ms), residual %.4f\n",
                 rep->inflightAvg, rep->achievedQps * rep->meanLatencyS,
                 rep->achievedQps, rep->meanLatencyS * 1e3,
                 rep->littlesResidual);
    for (const std::string &e : rep->errors)
        std::fprintf(stderr, "bench-serve: %s\n", e.c_str());

    Outcome out;
    if (rep->failed > 0 || rep->connectionErrors > 0) {
        out.verdict = Status::error(
            ErrorCode::IoError,
            "%llu failed responses, %llu connection errors",
            static_cast<unsigned long long>(rep->failed),
            static_cast<unsigned long long>(rep->connectionErrors));
    }
    util::JsonWriter w(out.data);
    w.beginObject(Layout::Block)
        .precision(6)
        .member("sent", rep->sent)
        .member("received", rep->received)
        .member("ok", rep->ok)
        .member("unavailable", rep->unavailable)
        .member("failed", rep->failed)
        .member("connection_errors", rep->connectionErrors)
        .member("wall_s", rep->wallS)
        .member("achieved_qps", rep->achievedQps)
        .key("littles_law")
        .beginObject()
        .member("l", rep->inflightAvg)
        .member("lambda_rps", rep->achievedQps)
        .member("w_ms", rep->meanLatencyS * 1e3)
        .member("residual", rep->littlesResidual)
        .end()
        .key("latency_ms")
        .beginObject()
        .key("all");
    writePercentilesMs(w, rep->latencyNs);
    w.key("ok");
    writePercentilesMs(w, rep->okLatencyNs);
    w.key("unavailable");
    writePercentilesMs(w, rep->shedLatencyNs);
    w.end().end();
    return out;
}

/** Serve's runner: --listen or --listen-unix (or --help) brings the
 *  socket front-end's flags into the request. */
int
serveRunner(std::vector<std::string> args, const Command &c)
{
    ServeRequest r;
    for (const std::string &a : args) {
        r.listening = r.listening || a == "--listen" ||
                      a == "--listen-unix" || a == "--help" || a == "-h";
    }
    return drive(std::move(args), c, runServe, std::move(r));
}

} // namespace

const Runner cmdServe = serveRunner;
const Runner cmdBenchServe = runner<runBenchServe>;

} // namespace lll::cli
