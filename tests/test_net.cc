/**
 * @file
 * Tests for the socket front-end (DESIGN.md §14): frame decoding,
 * admission control and shedding, per-connection pipelining caps,
 * concurrent-client byte-identity with the `serve --batch` path,
 * counter reconciliation, fault handling (non-JSON lines, oversized
 * lines, slow-loris, idle connections) and drain-on-shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/sweep.hh"
#include "net/client.hh"
#include "net/frame.hh"
#include "net/listener.hh"
#include "net/loadgen.hh"
#include "net/serve_handler.hh"
#include "obs/registry.hh"
#include "service/service.hh"
#include "util/names.hh"
#include "util/status.hh"
#include "xmem/xmem_harness.hh"

namespace lll::net
{
namespace
{

using util::ErrorCode;
using util::Status;

// ---------------------------------------------------------------- frames

TEST(FrameDecoder, SplitsNewlineFrames)
{
    FrameDecoder d(1024);
    const std::string in = "{\"a\": 1}\n{\"b\": 2}\n";
    d.feed(in.data(), in.size());
    std::string frame;
    Status err;
    ASSERT_EQ(d.next(&frame, &err), FrameDecoder::Next::Frame);
    EXPECT_EQ(frame, "{\"a\": 1}");
    ASSERT_EQ(d.next(&frame, &err), FrameDecoder::Next::Frame);
    EXPECT_EQ(frame, "{\"b\": 2}");
    EXPECT_EQ(d.next(&frame, &err), FrameDecoder::Next::NeedMore);
}

TEST(FrameDecoder, StripsCarriageReturns)
{
    FrameDecoder d(1024);
    const std::string in = "{\"a\": 1}\r\n";
    d.feed(in.data(), in.size());
    std::string frame;
    Status err;
    ASSERT_EQ(d.next(&frame, &err), FrameDecoder::Next::Frame);
    EXPECT_EQ(frame, "{\"a\": 1}");
}

TEST(FrameDecoder, ReassemblesAcrossFeeds)
{
    FrameDecoder d(1024);
    std::string frame;
    Status err;
    const std::string part1 = "{\"a\":";
    d.feed(part1.data(), part1.size());
    EXPECT_EQ(d.next(&frame, &err), FrameDecoder::Next::NeedMore);
    EXPECT_TRUE(d.hasPartial());
    const std::string part2 = " 1}\n";
    d.feed(part2.data(), part2.size());
    ASSERT_EQ(d.next(&frame, &err), FrameDecoder::Next::Frame);
    EXPECT_EQ(frame, "{\"a\": 1}");
    EXPECT_FALSE(d.hasPartial());
}

TEST(FrameDecoder, LineStartingWithADigitIsAnOrdinaryFrame)
{
    // Only newlines frame the stream: a leading digit is not a length
    // prefix, so the line comes back whole for the service to judge.
    FrameDecoder d(1024);
    const std::string in = "123xyz\n6:a\n{\"x\": 1}\n";
    d.feed(in.data(), in.size());
    std::string frame;
    Status err;
    for (const char *want : {"123xyz", "6:a", "{\"x\": 1}"}) {
        ASSERT_EQ(d.next(&frame, &err), FrameDecoder::Next::Frame);
        EXPECT_EQ(frame, want);
    }
    EXPECT_EQ(d.next(&frame, &err), FrameDecoder::Next::NeedMore);
}

TEST(FrameDecoder, SwallowsBlankKeepAlives)
{
    FrameDecoder d(1024);
    const std::string in = "\n\r\n   \n{\"a\": 1}\n\n";
    d.feed(in.data(), in.size());
    std::string frame;
    Status err;
    ASSERT_EQ(d.next(&frame, &err), FrameDecoder::Next::Frame);
    EXPECT_EQ(frame, "{\"a\": 1}");
    EXPECT_EQ(d.next(&frame, &err), FrameDecoder::Next::NeedMore);
    EXPECT_FALSE(d.hasPartial());
}

TEST(FrameDecoder, RejectsOversizedLines)
{
    FrameDecoder d(16);
    const std::string in(100, 'x'); // no newline yet — still too big
    d.feed(in.data(), in.size());
    std::string frame;
    Status err;
    ASSERT_EQ(d.next(&frame, &err), FrameDecoder::Next::Error);
    EXPECT_EQ(err.code(), ErrorCode::InvalidArgument);
    // Poisoned: the stream cannot recover.
    const std::string more = "{\"a\": 1}\n";
    d.feed(more.data(), more.size());
    EXPECT_EQ(d.next(&frame, &err), FrameDecoder::Next::Error);
}

// ------------------------------------------------------------ parseHostPort

TEST(ParseHostPort, SplitsHostAndPort)
{
    std::string host;
    int port = -1;
    ASSERT_TRUE(parseHostPort("127.0.0.1:8080", &host, &port).ok());
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 8080);
}

TEST(ParseHostPort, RejectsGarbage)
{
    std::string host;
    int port = -1;
    EXPECT_FALSE(parseHostPort("nope", &host, &port).ok());
    EXPECT_FALSE(parseHostPort(":123", &host, &port).ok());
    EXPECT_FALSE(parseHostPort("h:", &host, &port).ok());
    EXPECT_FALSE(parseHostPort("h:99999", &host, &port).ok());
    EXPECT_FALSE(parseHostPort("h:12x", &host, &port).ok());
}

// --------------------------------------------------------------- listener

/** A fast request (short windows, few cores) — same shape as the
 *  test_service helper so stage results come from the shared cache. */
std::string
quickRequest(const std::string &id)
{
    return "{\"schema_version\": 1, \"id\": \"" + id +
           "\", \"platform\": \"skl\", \"workload\": \"isx\", "
           "\"cores\": 6, \"warmup_us\": 5, \"measure_us\": 10}";
}

/** Load (or measure once) skl's profile before a timed test, so no
 *  request waits on a characterization and every compared response
 *  comes from the saved profile (a fresh measurement differs from its
 *  disk round-trip in the last digits). */
void
warmProfileCache()
{
    platforms::Platform skl = platforms::skl();
    util::Result<xmem::LatencyProfile> prof =
        xmem::XMemHarness().measureCachedChecked(
            skl, xmem::defaultProfilePath(skl));
    ASSERT_TRUE(prof.ok()) << prof.status().toString();
}

/** An in-process listener on an ephemeral loopback port, with run()
 *  on its own thread and the real ServeHandler behind it. */
class TestServer
{
  public:
    explicit TestServer(ListenerParams params)
    {
        ServeHandlerParams hp;
        hp.cache = &cache_;
        params.tcpPort = 0; // ephemeral
        if (!params.handler)
            params.handler = ServeHandler(hp);
        params.registry = &registry_;
        listener_ = std::make_unique<Listener>(std::move(params));
        Status s = listener_->start();
        EXPECT_TRUE(s.ok()) << s.toString();
        thread_ = std::thread([this] { runStatus_ = listener_->run(); });
    }

    ~TestServer()
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

    int port() const { return listener_->tcpPort(); }

    /** Only valid after stop() — the registry belongs to the event
     *  loop while it runs. */
    obs::MetricRegistry &registry() { return registry_; }

    uint64_t counter(const char *name)
    {
        return registry_.counter(name).value();
    }

  private:
    core::ResultCache cache_;
    obs::MetricRegistry registry_;
    std::unique_ptr<Listener> listener_;
    std::thread thread_;
    Status runStatus_;
};

TEST(Listener, ServesOneRequest)
{
    warmProfileCache();
    TestServer server(ListenerParams{});
    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client->sendAll(quickRequest("r1") + "\n").ok());
    util::Result<std::string> line = client->recvLine(30000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_NE(line->find("\"id\": \"r1\""), std::string::npos);
    EXPECT_NE(line->find("\"code\": \"ok\""), std::string::npos);
}

TEST(Listener, V2SearchRequestMatchesTheBatchPathByteForByte)
{
    warmProfileCache();

    const std::string search_line =
        "{\"schema_version\": 2, \"kind\": \"search\", \"id\": "
        "\"s1\", \"platform\": \"skl\", \"workload\": \"isx\", "
        "\"cores\": 6, \"warmup_us\": 5, \"measure_us\": 10, "
        "\"axes\": [\"l2_mshrs=8,16\"]}";

    // Warm the candidate-profile cache (a fresh measurement and its
    // disk round-trip differ in the last ulp), then take the batch
    // path's rendering as the byte-exact expectation.
    std::string expected;
    {
        core::ResultCache warm_cache;
        service::RunService::Params sp;
        sp.cache = &warm_cache;
        service::RunService svc(sp);
        ASSERT_FALSE(svc.serveLines({search_line}).empty());
    }
    {
        core::ResultCache batch_cache;
        service::RunService::Params sp;
        sp.cache = &batch_cache;
        service::RunService svc(sp);
        std::vector<service::RunResponse> rs =
            svc.serveLines({search_line});
        ASSERT_EQ(rs.size(), 1u);
        ASSERT_TRUE(rs[0].status.ok()) << rs[0].status.toString();
        expected = service::renderRunResponse(rs[0]);
    }

    TestServer server(ListenerParams{});
    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client->sendAll(search_line + "\n").ok());
    util::Result<std::string> line = client->recvLine(60000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_EQ(*line, expected);
    EXPECT_NE(line->find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(line->find("\"frontier\": ["), std::string::npos);
}

TEST(Listener, ConcurrentClientsMatchTheBatchPathByteForByte)
{
    warmProfileCache();

    // The same 4-line batch every client will send.
    std::vector<std::string> lines;
    lines.push_back(quickRequest("a"));
    lines.push_back(
        "{\"schema_version\": 1, \"platform\": \"skl\", \"workload\": "
        "\"isx\", \"cores\": 6, \"warmup_us\": 5, \"measure_us\": "
        "10}"); // no id — defaults to the per-connection "#2"
    lines.push_back("this is not json");
    lines.push_back(quickRequest("a")); // coalesces with line 1

    // Expected responses straight from the service, exactly as the
    // --batch path renders them.
    core::ResultCache batch_cache;
    service::RunService::Params sp;
    sp.jobs = 1;
    sp.cache = &batch_cache;
    service::RunService svc(sp);
    std::vector<std::string> expected;
    for (const service::RunResponse &r : svc.serveLines(lines))
        expected.push_back(service::renderRunResponse(r));
    ASSERT_EQ(expected.size(), lines.size());

    ListenerParams params;
    params.workers = 3;
    params.maxInflight = 16;
    params.maxPipelined = 8;
    TestServer server(params);

    constexpr int kClients = 4;
    std::vector<std::vector<std::string>> got(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            util::Result<BlockingClient> cl =
                BlockingClient::connectTcp("127.0.0.1", server.port());
            if (!cl.ok()) {
                errors[c] = cl.status().toString();
                return;
            }
            std::string payload;
            for (const std::string &l : lines)
                payload += l + "\n";
            Status s = cl->sendAll(payload);
            if (!s.ok()) {
                errors[c] = s.toString();
                return;
            }
            for (size_t i = 0; i < lines.size(); ++i) {
                util::Result<std::string> line = cl->recvLine(60000);
                if (!line.ok()) {
                    errors[c] = line.status().toString();
                    return;
                }
                got[c].push_back(*line);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (int c = 0; c < kClients; ++c) {
        ASSERT_TRUE(errors[c].empty()) << "client " << c << ": "
                                       << errors[c];
        EXPECT_EQ(got[c], expected) << "client " << c;
    }

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();

    // Reconciliation: every received request was either admitted or
    // shed, and every one of them produced exactly one response.
    const uint64_t received =
        server.counter("net.requests_received_total");
    EXPECT_EQ(received, uint64_t(kClients) * lines.size());
    EXPECT_EQ(server.counter("net.requests_admitted_total") +
                  server.counter("net.requests_shed_total"),
              received);
    EXPECT_EQ(server.counter("net.responses_total"), received);
    EXPECT_EQ(server.counter("net.conns_accepted_total"),
              uint64_t(kClients));
}

TEST(Listener, PipeliningCapStillAnswersEverythingInOrder)
{
    warmProfileCache();
    ListenerParams params;
    params.workers = 2;
    params.maxInflight = 4;
    params.maxPipelined = 2; // forces pause/resume on the read side
    TestServer server(params);

    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    constexpr int kRequests = 12;
    std::string payload;
    for (int i = 0; i < kRequests; ++i)
        payload += quickRequest("q" + std::to_string(i)) + "\n";
    ASSERT_TRUE(client->sendAll(payload).ok());
    for (int i = 0; i < kRequests; ++i) {
        util::Result<std::string> line = client->recvLine(60000);
        ASSERT_TRUE(line.ok()) << i << ": " << line.status().toString();
        EXPECT_NE(line->find("\"id\": \"q" + std::to_string(i) + "\""),
                  std::string::npos)
            << *line;
    }
}

TEST(Listener, ShedsBeyondAdmissionCapacityWithStructuredUnavailable)
{
    // maxInflight 0 is degenerate but deterministic: every request is
    // shed, none ever reaches the service.
    ListenerParams params;
    params.maxInflight = 0;
    TestServer server(params);

    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client
                    ->sendAll(quickRequest("x1") + "\n" +
                              quickRequest("x2") + "\n")
                    .ok());
    for (int i = 1; i <= 2; ++i) {
        util::Result<std::string> line = client->recvLine(15000);
        ASSERT_TRUE(line.ok()) << line.status().toString();
        // Shed responses use the positional id (the request was never
        // parsed) and the standard status envelope with null data.
        EXPECT_NE(line->find("\"id\": \"#" + std::to_string(i) + "\""),
                  std::string::npos)
            << *line;
        EXPECT_NE(line->find("\"code\": \"unavailable\""),
                  std::string::npos)
            << *line;
        EXPECT_NE(line->find("\"data\": null"), std::string::npos)
            << *line;
    }

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_EQ(server.counter("net.requests_shed_total"), 2u);
    EXPECT_EQ(server.counter("net.requests_admitted_total"), 0u);
}

TEST(Listener, DigitLeadingLineIsAnsweredLikeTheBatchPathAndStaysOpen)
{
    // The batch path's answer to the same line is the expectation: a
    // line that is not JSON is corrupt-data, like any other.
    core::ResultCache batch_cache;
    service::RunService::Params sp;
    sp.cache = &batch_cache;
    service::RunService svc(sp);
    std::vector<service::RunResponse> rs = svc.serveLines({"123xyz"});
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_EQ(rs[0].status.code(), ErrorCode::CorruptData);
    const std::string expected = service::renderRunResponse(rs[0]);

    warmProfileCache();
    TestServer server(ListenerParams{});
    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client->sendAll("123xyz\n").ok());
    util::Result<std::string> line = client->recvLine(15000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_EQ(*line, expected);

    // The line was a request, not a framing violation: the connection
    // stays open and answers the next request.
    ASSERT_TRUE(client->sendAll(quickRequest("ok1") + "\n").ok());
    util::Result<std::string> next = client->recvLine(30000);
    ASSERT_TRUE(next.ok()) << next.status().toString();
    EXPECT_NE(next->find("\"id\": \"ok1\""), std::string::npos) << *next;
    EXPECT_NE(next->find("\"code\": \"ok\""), std::string::npos) << *next;

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_EQ(server.counter("net.requests_malformed_total"), 0u);
    EXPECT_EQ(server.counter("net.requests_received_total"), 2u);
}

TEST(Listener, OversizedLineIsRejectedNotBuffered)
{
    ListenerParams params;
    params.maxFrameBytes = 128;
    // Longer than the waits below, so only the close that follows the
    // error can end the connection within them.
    params.readTimeoutMs = 60000;
    TestServer server(params);
    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    const std::string huge(4096, 'x');
    ASSERT_TRUE(client->sendAll(huge + "\n").ok());
    util::Result<std::string> line = client->recvLine(15000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_NE(line->find("\"code\": \"invalid-argument\""),
              std::string::npos)
        << *line;
    EXPECT_NE(line->find("limit"), std::string::npos) << *line;
    // The rest of the line was dropped unread, so the stream cannot be
    // re-synchronized: the server closes it.
    util::Result<std::string> eof = client->recvLine(15000);
    ASSERT_FALSE(eof.ok());
    EXPECT_EQ(eof.status().code(), ErrorCode::IoError);

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_EQ(server.counter(util::names::kNetRequestsMalformedTotal), 1u);
    EXPECT_EQ(server.counter(util::names::kNetConnsClosedProtocolTotal),
              1u);
}

TEST(Listener, SlowLorisConnectionIsReaped)
{
    ListenerParams params;
    params.readTimeoutMs = 150;
    TestServer server(params);
    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    // A frame that never completes.
    ASSERT_TRUE(client->sendAll("{\"schema_version\": 1").ok());
    util::Result<std::string> eof = client->recvLine(15000);
    ASSERT_FALSE(eof.ok());
    EXPECT_EQ(eof.status().code(), ErrorCode::IoError); // closed on us

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_EQ(server.counter("net.conns_closed_read_timeout_total"),
              1u);
}

TEST(Listener, IdleConnectionIsReaped)
{
    ListenerParams params;
    params.idleTimeoutMs = 150;
    TestServer server(params);
    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    util::Result<std::string> eof = client->recvLine(15000);
    ASSERT_FALSE(eof.ok());
    EXPECT_EQ(eof.status().code(), ErrorCode::IoError);

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_EQ(server.counter("net.conns_closed_idle_total"), 1u);
}

TEST(Listener, NonPositiveTimeoutIsRefused)
{
    // Every timeout is armed; 0 or less is a bad input, not "off".
    // Likewise no worker or no pipelined request is refused, never
    // quietly raised to 1.
    auto refused = [](const std::function<void(ListenerParams &)> &set) {
        ListenerParams params;
        params.tcpPort = 0;
        params.handler = [](const std::string &, uint64_t) {
            return HandlerResult{};
        };
        set(params);
        Listener listener(std::move(params));
        Status s = listener.start();
        EXPECT_EQ(s.code(), ErrorCode::InvalidArgument) << s.toString();
    };
    for (int ListenerParams::*field :
         {&ListenerParams::idleTimeoutMs, &ListenerParams::readTimeoutMs,
          &ListenerParams::watchdogMs, &ListenerParams::drainGraceMs,
          &ListenerParams::workers})
        refused([field](ListenerParams &p) { p.*field = 0; });
    refused([](ListenerParams &p) { p.maxPipelined = 0; });
}

TEST(Listener, MidRequestDisconnectDoesNotDisturbOthers)
{
    warmProfileCache();
    ListenerParams params;
    params.workers = 2;
    TestServer server(params);

    // One client sends a request and disconnects without reading.
    {
        util::Result<BlockingClient> rude =
            BlockingClient::connectTcp("127.0.0.1", server.port());
        ASSERT_TRUE(rude.ok()) << rude.status().toString();
        ASSERT_TRUE(rude->sendAll(quickRequest("gone") + "\n").ok());
        rude->close();
    }

    // A well-behaved client is still served.
    util::Result<BlockingClient> polite =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(polite.ok()) << polite.status().toString();
    ASSERT_TRUE(polite->sendAll(quickRequest("here") + "\n").ok());
    util::Result<std::string> line = polite->recvLine(30000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_NE(line->find("\"id\": \"here\""), std::string::npos);

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
}

TEST(Listener, DrainShutdownCompletesAdmittedWork)
{
    warmProfileCache();
    TestServer server(ListenerParams{});
    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client->sendAll(quickRequest("d1") + "\n").ok());
    // Give the event loop a moment to admit it, then drain.
    util::Result<std::string> line = client->recvLine(30000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_NE(line->find("\"id\": \"d1\""), std::string::npos);

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_EQ(server.counter("net.requests_admitted_total"), 1u);
    EXPECT_EQ(server.counter("net.responses_total"), 1u);
}

TEST(Listener, WorkerTelemetryAddsUpToTheAdmittedRequests)
{
    warmProfileCache();
    ListenerParams params;
    params.workers = 2;
    TestServer server(params);
    util::Result<BlockingClient> client =
        BlockingClient::connectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().toString();

    // One request in flight at a time, so each request's cache-stat
    // delta is its own: three cold stages (distinct seeds), each then
    // repeated warm three times, and one line that fails to parse.
    constexpr int kCold = 3;
    constexpr int kWarmRepeats = 3;
    std::vector<std::string> plan;
    for (int pass = 0; pass <= kWarmRepeats; ++pass) {
        for (int k = 0; k < kCold; ++k) {
            plan.push_back(
                "{\"schema_version\": 1, \"platform\": \"skl\", "
                "\"workload\": \"isx\", \"cores\": 6, \"seed\": " +
                std::to_string(9100 + k) +
                ", \"warmup_us\": 5, \"measure_us\": 10}");
        }
    }
    plan.push_back("this is not json");
    for (const std::string &line : plan) {
        ASSERT_TRUE(client->sendAll(line + "\n").ok());
        util::Result<std::string> resp = client->recvLine(60000);
        ASSERT_TRUE(resp.ok()) << resp.status().toString();
    }

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    const uint64_t admitted = plan.size();
    EXPECT_EQ(server.counter(util::names::kNetRequestsAdmittedTotal),
              admitted);
    EXPECT_EQ(server.counter(util::names::kServiceRequestsTotal),
              admitted);
    EXPECT_EQ(server.registry()
                  .histogram(util::names::kServiceLatencyTotalNs)
                  .total(),
              admitted);
    EXPECT_EQ(server.counter(util::names::kServiceRequestsFailedTotal),
              1u);
    EXPECT_EQ(server.counter(util::names::kServiceCacheMissesTotal),
              uint64_t(kCold));
    EXPECT_EQ(server.counter(util::names::kServiceCacheHitsTotal),
              uint64_t(kCold * kWarmRepeats));
}

TEST(Listener, ConcurrentWarmHitsCountEachLookupOnce)
{
    warmProfileCache();
    ListenerParams params;
    params.workers = 2;
    TestServer server(params);

    // Two cold stages first, one at a time; then two clients pipeline
    // warm repeats of them, so both workers serve hits at once on the
    // shared cache.  Each request looks its one unit up exactly once.
    auto request = [](int k) {
        return "{\"schema_version\": 1, \"platform\": \"skl\", "
               "\"workload\": \"isx\", \"cores\": 6, \"seed\": " +
               std::to_string(9200 + k) +
               ", \"warmup_us\": 5, \"measure_us\": 10}\n";
    };
    constexpr int kCold = 2;
    constexpr int kWarmPerClient = 1000;
    {
        util::Result<BlockingClient> client =
            BlockingClient::connectTcp("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.status().toString();
        for (int k = 0; k < kCold; ++k) {
            ASSERT_TRUE(client->sendAll(request(k)).ok());
            ASSERT_TRUE(client->recvLine(60000).ok());
        }
    }
    std::vector<BlockingClient> clients;
    for (int c = 0; c < 2; ++c) {
        util::Result<BlockingClient> client =
            BlockingClient::connectTcp("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.status().toString();
        clients.push_back(client.take());
    }
    std::string batch;
    for (int i = 0; i < kWarmPerClient; ++i)
        batch += request(i % kCold);
    for (BlockingClient &client : clients)
        ASSERT_TRUE(client.sendAll(batch).ok());
    for (BlockingClient &client : clients) {
        for (int i = 0; i < kWarmPerClient; ++i) {
            util::Result<std::string> resp = client.recvLine(60000);
            ASSERT_TRUE(resp.ok()) << resp.status().toString();
        }
    }

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    const uint64_t looked_up = kCold + 2 * kWarmPerClient;
    const uint64_t hits = server.counter(util::names::kServiceCacheHitsTotal);
    const uint64_t misses =
        server.counter(util::names::kServiceCacheMissesTotal);
    EXPECT_EQ(hits + misses, looked_up);
    EXPECT_EQ(misses, uint64_t(kCold));
}

TEST(Listener, UnixSocketServes)
{
    warmProfileCache();
    const std::string path =
        "/tmp/lll_test_net_" + std::to_string(::getpid()) + ".sock";
    ListenerParams params;
    params.tcpPort = -1;
    params.unixPath = path;
    ServeHandlerParams hp;
    core::ResultCache cache;
    hp.cache = &cache;
    params.handler = ServeHandler(hp);
    obs::MetricRegistry registry;
    params.registry = &registry;
    Listener listener(std::move(params));
    ASSERT_TRUE(listener.start().ok());
    std::thread runner([&listener] { (void)listener.run(); });

    util::Result<BlockingClient> client =
        BlockingClient::connectUnix(path);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client->sendAll(quickRequest("u1") + "\n").ok());
    util::Result<std::string> line = client->recvLine(30000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_NE(line->find("\"id\": \"u1\""), std::string::npos);

    listener.requestShutdown();
    runner.join();
    std::remove(path.c_str());
}

// --------------------------------------------------------------- loadgen

TEST(LoadGen, PacedLatencyIncludesTheBacklogBehindAStall)
{
    // The first request stalls the server.  The paced requests that
    // fall due meanwhile go out late, once the pipeline frees up;
    // stamped from their due times, they carry that backlog into the
    // reported tail instead of hiding it.
    const double stall_ms = 200.0;
    auto stalled = std::make_shared<std::atomic<bool>>(false);
    ListenerParams params;
    params.handler = [stalled, stall_ms](const std::string &, uint64_t) {
        if (!stalled->exchange(true)) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(stall_ms));
        }
        HandlerResult out;
        out.line = "{\"status\": {\"code\": \"ok\"}}";
        return out;
    };
    TestServer server(std::move(params));

    LoadGenParams lp;
    lp.port = server.port();
    lp.connections = 1;
    lp.pipeline = 1;
    lp.qps = 200.0;
    lp.durationS = 1.0;
    lp.requestLines = {"{}"};
    util::Result<LoadGenReport> rep = runLoadGen(lp);
    ASSERT_TRUE(rep.ok()) << rep.status().toString();
    EXPECT_EQ(rep->received, rep->sent);
    EXPECT_EQ(rep->ok, rep->received);
    // About 40 of ~200 requests fell due during the stall, so the p99
    // sits inside the backlog, not on the fast path behind it.
    EXPECT_GE(rep->okLatencyNs.percentile(0.99), 0.5 * stall_ms * 1e6);
}

TEST(LoadGen, LightlyPacedRunObeysLittlesLaw)
{
    // Each request holds a worker for 20 ms; at 50 req/s on 4 workers
    // the generator never has to wait, so what it keeps in flight (L)
    // matches throughput x latency (λW) up to its send jitter.
    ListenerParams params;
    params.workers = 4;
    params.handler = [](const std::string &, uint64_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        HandlerResult out;
        out.line = "{\"status\": {\"code\": \"ok\"}}";
        return out;
    };
    TestServer server(std::move(params));

    LoadGenParams lp;
    lp.port = server.port();
    lp.connections = 2;
    lp.pipeline = 4;
    lp.qps = 50.0;
    lp.durationS = 1.5;
    lp.requestLines = {"{}"};
    util::Result<LoadGenReport> rep = runLoadGen(lp);
    ASSERT_TRUE(rep.ok()) << rep.status().toString();
    ASSERT_EQ(rep->received, rep->sent);
    ASSERT_GT(rep->received, 50u);
    EXPECT_GE(rep->meanLatencyS, 0.020);
    // About one request in flight: 50/s x 20 ms.
    EXPECT_GT(rep->inflightAvg, 0.5);
    EXPECT_LT(rep->inflightAvg, 2.0);
    EXPECT_LT(rep->littlesResidual, 0.2);
}

} // namespace
} // namespace lll::net
