/**
 * @file
 * Listener fault scenarios for the selftest harness: each one points a
 * deliberately broken client at an in-process socket front-end and
 * asserts the DESIGN.md §14 contract — a structured error or a reaped
 * connection for the offender, uninterrupted service for everyone
 * else.  Split out of faultinject.cc so only this translation unit
 * pulls in the net layer.
 */

#include "faultinject/faultinject.hh"

#include <initializer_list>
#include <memory>
#include <thread>
#include <utility>

#include "core/sweep.hh"
#include "net/client.hh"
#include "net/listener.hh"
#include "net/serve_handler.hh"
#include "obs/registry.hh"
#include "util/json.hh"
#include "util/status.hh"

namespace lll::faultinject
{
namespace
{

using net::BlockingClient;
using util::ErrorCode;
using util::Status;

/** The same fast request shape the service tests use, as one line;
 *  an unknown @p workload is answered `not-found` without simulating. */
std::string
quickRequestLine(const char *workload = "isx")
{
    core::StageRequest req;
    req.platformName = "skl";
    req.workloadName = workload;
    req.cores = 6;
    req.warmupUs = 5;
    req.measureUs = 10;
    return core::requestLine(req, "ctl") + "\n";
}

/** An in-process listener on an ephemeral loopback port. */
class NetServer
{
  public:
    explicit NetServer(net::ListenerParams params)
    {
        net::ServeHandlerParams hp;
        hp.cache = &cache_;
        params.tcpPort = 0;
        if (!params.handler)
            params.handler = net::ServeHandler(hp);
        params.registry = &registry_;
        listener_ =
            std::make_unique<net::Listener>(std::move(params));
        startStatus_ = listener_->start();
        if (startStatus_.ok()) {
            thread_ = std::thread(
                [this] { runStatus_ = listener_->run(); });
        }
    }

    ~NetServer()
    {
        if (thread_.joinable())
            stop();
    }

    Status stop()
    {
        listener_->requestShutdown();
        thread_.join();
        return runStatus_;
    }

    /** A client connection, or why there is none (the listener's
     *  start error first). */
    util::Result<BlockingClient> connect()
    {
        if (!startStatus_.ok())
            return startStatus_;
        return BlockingClient::connectTcp("127.0.0.1",
                                          listener_->tcpPort());
    }

  private:
    core::ResultCache cache_;
    obs::MetricRegistry registry_;
    std::unique_ptr<net::Listener> listener_;
    std::thread thread_;
    Status startStatus_;
    Status runStatus_;
};

/** The cross-scenario invariant: a fresh, polite connection is still
 *  answered (any structured response line counts — with admission
 *  disabled the answer is a well-formed `unavailable`).  The control
 *  request names no workload, so the handler answers it `not-found`
 *  without a simulation that could outlast the wait. */
bool
controlStillServed(NetServer &server, std::string *detail)
{
    util::Result<BlockingClient> client = server.connect();
    if (!client.ok()) {
        *detail = "control connect failed: " +
                  client.status().toString();
        return false;
    }
    Status sent = client->sendAll(quickRequestLine("no-such-workload"));
    if (!sent.ok()) {
        *detail = "control send failed: " + sent.toString();
        return false;
    }
    util::Result<std::string> line = client->recvLine(30000);
    if (!line.ok()) {
        *detail = "control response missing: " +
                  line.status().toString();
        return false;
    }
    if (line->find("\"status\"") == std::string::npos) {
        *detail = "control response unstructured: " + *line;
        return false;
    }
    return true;
}

/** The `status.code` of response @p line if it answers request @p id;
 *  empty otherwise. */
std::string
responseCode(const std::string &line, const std::string &id)
{
    util::Result<util::JsonValue> doc = util::parseJson(line);
    if (!doc.ok())
        return "";
    util::Result<std::string> got_id = doc->getStringOr("id", "");
    const util::JsonValue *status = doc->find("status");
    if (!got_id.ok() || *got_id != id || status == nullptr)
        return "";
    util::Result<std::string> code = status->getStringOr("code", "");
    return code.ok() ? *code : "";
}

/** Read one response per (id, code) pair in @p want, in order, and
 *  check each answers that request with that code; false with
 *  @p *detail set on the first that does not. */
bool
expectResponses(BlockingClient &client,
                std::initializer_list<std::pair<const char *, const char *>>
                    want,
                std::string *detail)
{
    for (const auto &[id, code] : want) {
        util::Result<std::string> line = client.recvLine(30000);
        if (!line.ok()) {
            *detail = "response missing: " + line.status().toString();
            return false;
        }
        if (responseCode(*line, id) != code) {
            *detail = std::string("expected '") + id + "' to be " + code +
                      ", got: " + *line;
            return false;
        }
    }
    return true;
}

ScenarioResult
malformedFrameScenario()
{
    ScenarioResult r;
    r.scenario = "listener-malformed-frame";
    NetServer server((net::ListenerParams()));
    util::Result<BlockingClient> client = server.connect();
    if (!client.ok()) {
        r.detail = client.status().toString();
        return r;
    }
    // A line that starts with a digit is a request like any other: the
    // service answers it corrupt-data, as a batch file's line, and the
    // connection goes on to answer the next request.
    if (!client->sendAll("123xyz\n" + quickRequestLine()).ok()) {
        r.detail = "send failed";
        return r;
    }
    if (!expectResponses(*client, {{"#1", "corrupt-data"}, {"ctl", "ok"}},
                         &r.detail))
        return r;
    r.passed = true;
    r.detail = "corrupt-data for the non-JSON line, then ok for the next "
               "request on the same connection";
    return r;
}

ScenarioResult
oversizedLineScenario()
{
    ScenarioResult r;
    r.scenario = "listener-oversized-line";
    net::ListenerParams params;
    params.maxFrameBytes = 256;
    // Longer than the waits below, so only the close that follows the
    // error can end the connection within them.
    params.readTimeoutMs = 60000;
    NetServer server(params);
    util::Result<BlockingClient> client = server.connect();
    if (!client.ok()) {
        r.detail = client.status().toString();
        return r;
    }
    if (!client->sendAll(std::string(4096, 'x') + "\n").ok()) {
        r.detail = "send failed";
        return r;
    }
    util::Result<std::string> line = client->recvLine(15000);
    if (!line.ok()) {
        r.detail = "no error response: " + line.status().toString();
        return r;
    }
    if (line->find("\"invalid-argument\"") == std::string::npos ||
        line->find("limit") == std::string::npos) {
        r.detail = "expected a limit error, got: " + *line;
        return r;
    }
    // The connection must be closed after the error...
    if (client->recvLine(15000).status().code() != ErrorCode::IoError) {
        r.detail = "connection stayed open after the over-limit line";
        return r;
    }
    // ...and the server must keep serving.
    if (!controlStillServed(server, &r.detail))
        return r;
    r.passed = true;
    r.detail = "4 KiB line rejected at a 256-byte limit without "
               "buffering it, then close; control connection served";
    return r;
}

ScenarioResult
slowLorisScenario()
{
    ScenarioResult r;
    r.scenario = "listener-slow-loris";
    net::ListenerParams params;
    params.readTimeoutMs = 150;
    NetServer server(params);
    util::Result<BlockingClient> client = server.connect();
    if (!client.ok()) {
        r.detail = client.status().toString();
        return r;
    }
    // A frame that never completes: a few bytes, then silence.
    if (!client->sendAll("{\"schema_version\":").ok()) {
        r.detail = "send failed";
        return r;
    }
    util::Result<std::string> eof = client->recvLine(15000);
    if (eof.ok()) {
        r.detail = "slow-loris connection was answered instead of "
                   "reaped: " + *eof;
        return r;
    }
    if (eof.status().code() != ErrorCode::IoError) {
        r.detail = "expected the server to close, got: " +
                   eof.status().toString();
        return r;
    }
    if (!controlStillServed(server, &r.detail))
        return r;
    r.passed = true;
    r.detail = "partial frame reaped by the read timeout; control "
               "connection served";
    return r;
}

ScenarioResult
midRequestDisconnectScenario()
{
    ScenarioResult r;
    r.scenario = "listener-mid-request-disconnect";
    // The orphaned request simulates (and may first characterize a
    // profile) on one worker; a second worker answers the control line
    // meanwhile instead of queueing it behind that simulation.
    net::ListenerParams params;
    params.workers = 2;
    NetServer server(params);
    {
        util::Result<BlockingClient> rude = server.connect();
        if (!rude.ok()) {
            r.detail = rude.status().toString();
            return r;
        }
        if (!rude->sendAll(quickRequestLine()).ok()) {
            r.detail = "send failed";
            return r;
        }
        rude->close(); // gone before the response exists
    }
    if (!controlStillServed(server, &r.detail))
        return r;
    r.passed = true;
    r.detail = "request orphaned by disconnect; control connection "
               "served";
    return r;
}

ScenarioResult
neverReadsScenario()
{
    ScenarioResult r;
    r.scenario = "listener-client-never-reads";
    net::ListenerParams params;
    // Admission disabled: every request becomes an instant shed
    // response, so output piles up without simulating.  Once the
    // kernel buffers fill, the server's writes stall, lastActivity
    // freezes, and the idle (or read-timeout, if a partial frame is
    // buffered) clock must reap the connection.
    params.maxInflight = 0;
    params.maxWriteBuffer = 4096;
    params.maxPipelined = 64;
    params.readTimeoutMs = 400;
    params.idleTimeoutMs = 400;
    NetServer server(params);
    util::Result<BlockingClient> client = server.connect();
    if (!client.ok()) {
        r.detail = client.status().toString();
        return r;
    }
    // Flood requests without ever reading a byte back.  The loop ends
    // when the server resets us: a blocked send() is released by the
    // RST from the server-side close, so the reap bounds the loop.
    std::string batch;
    for (int i = 0; i < 20; ++i)
        batch += quickRequestLine();
    bool closed = false;
    for (int i = 0; i < 100000 && !closed; ++i)
        closed = !client->sendAll(batch).ok();
    if (!closed) {
        r.detail = "server never reaped a client that floods "
                   "requests and reads nothing";
        return r;
    }
    if (!controlStillServed(server, &r.detail))
        return r;
    r.passed = true;
    r.detail = "flooding non-reader stalled and was reaped; control "
               "connection served";
    return r;
}

ScenarioResult
wedgedRequestScenario()
{
    ScenarioResult r;
    r.scenario = "listener-wedged-request";
    NetServer server((net::ListenerParams()));
    util::Result<BlockingClient> client = server.connect();
    if (!client.ok()) {
        r.detail = client.status().toString();
        return r;
    }
    // An inline random stream that thinks 1e12 cycles between requests
    // stops the event queue draining; the simulator's watchdog fails
    // that request alone, and the control line behind it on the same
    // connection is still answered, in order.
    core::StageRequest wedge;
    wedge.platformName = "skl";
    wedge.hasSpec = true;
    wedge.spec.name = "wedge";
    wedge.spec.computeCyclesPerOp = 1e12;
    wedge.spec.streams = {{.kind = sim::StreamDesc::Kind::Random}};
    wedge.randomDominated = true;
    if (!client->sendAll(core::requestLine(wedge, "wedge") + "\n" +
                         quickRequestLine())
             .ok()) {
        r.detail = "send failed";
        return r;
    }
    if (!expectResponses(*client,
                         {{"wedge", "deadline-exceeded"}, {"ctl", "ok"}},
                         &r.detail))
        return r;
    r.passed = true;
    r.detail = "wedged request answered deadline-exceeded; the next "
               "request on its connection answered ok";
    return r;
}

} // namespace

std::vector<ScenarioResult>
listenerScenarios(const Options &opts)
{
    (void)opts; // deterministic scenarios; no fuzz stage yet
    std::vector<ScenarioResult> results;
    results.push_back(malformedFrameScenario());
    results.push_back(oversizedLineScenario());
    results.push_back(slowLorisScenario());
    results.push_back(midRequestDisconnectScenario());
    results.push_back(neverReadsScenario());
    results.push_back(wedgedRequestScenario());
    return results;
}

} // namespace lll::faultinject
