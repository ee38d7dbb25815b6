/**
 * @file
 * Tests for the socket front-end (DESIGN.md §14): frame decoding,
 * admission control and shedding, per-connection pipelining caps,
 * concurrent-client byte-identity with the `serve --batch` path,
 * counter reconciliation, answers on the event loop and the profile
 * revalidation they keep, idle reaping, start() refusals, the unix
 * socket file and drain-on-shutdown.  The non-JSON line, oversized
 * line, slow-loris and mid-request disconnect contracts are checked
 * once, by the `lll selftest` listener scenarios
 * (src/faultinject/netfaults.cc, run by test_faultinject).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
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
#include "obs/span.hh"
#include "platforms/platform.hh"
#include "service/service.hh"
#include "test_common.hh"
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

TEST(FrameDecoder, BlankLinesHoldingCarriageReturnsAreKeepAlives)
{
    // A '\r' inside a blank line, not only at its end, keeps it blank:
    // the same lines `serve --batch` skips.
    FrameDecoder d(1024);
    const std::string in = " \r \n\t\r\t\r\n\r\r\n{\"a\": 1}\n";
    d.feed(in.data(), in.size());
    std::string frame;
    Status err;
    ASSERT_EQ(d.next(&frame, &err), FrameDecoder::Next::Frame);
    EXPECT_EQ(frame, "{\"a\": 1}");
    EXPECT_EQ(d.next(&frame, &err), FrameDecoder::Next::NeedMore);
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

TEST(Listener, ServesOneRequest)
{
    LocalServer server(ListenerParams{});
    util::Result<BlockingClient> client = server.connect();
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client->sendAll(quickRequest("r1") + "\n").ok());
    util::Result<std::string> line = client->recvLine(30000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_NE(line->find("\"id\": \"r1\""), std::string::npos);
    EXPECT_NE(line->find("\"code\": \"ok\""), std::string::npos);
}

TEST(Listener, BlankLineHoldingACarriageReturnGetsNoResponse)
{
    // " \r " is a blank line to `serve --batch`; on the socket it is a
    // keep-alive too, so the next line is the connection's first
    // request and its answer is the first response.
    LocalServer server(ListenerParams{});
    util::Result<BlockingClient> client = server.connect();
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client->sendAll(" \r \n\t\r\t\n123xyz\n").ok());
    util::Result<std::string> line = client->recvLine(15000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_NE(line->find("\"id\": \"#1\""), std::string::npos) << *line;
    EXPECT_NE(line->find("\"code\": \"corrupt-data\""), std::string::npos)
        << *line;
    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_EQ(server.counter("net.responses_total"), 1u);
}

TEST(Listener, V2SearchRequestMatchesTheBatchPathByteForByte)
{
    // First, so skl's saved profile is loaded before the batch path
    // computes the expectation from it.
    LocalServer server(ListenerParams{});
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

    util::Result<BlockingClient> client = server.connect();
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
    // First, so skl's saved profile is loaded before the batch path
    // computes the expectation from it.
    ListenerParams params;
    params.workers = 3;
    params.maxInflight = 16;
    params.maxPipelined = 8;
    LocalServer server(params);

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

    constexpr int kClients = 4;
    std::vector<std::vector<std::string>> got(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            util::Result<BlockingClient> cl = server.connect();
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
    ListenerParams params;
    params.workers = 2;
    params.maxInflight = 4;
    params.maxPipelined = 2; // forces pause/resume on the read side
    LocalServer server(params);

    util::Result<BlockingClient> client = server.connect();
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
    LocalServer server(params);

    util::Result<BlockingClient> client = server.connect();
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

TEST(Listener, IdleConnectionIsReaped)
{
    ListenerParams params;
    params.idleTimeoutMs = 150;
    LocalServer server(params);
    util::Result<BlockingClient> client = server.connect();
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
        set(params);
        LocalServer server(std::move(params));
        EXPECT_EQ(server.connect().status().code(),
                  ErrorCode::InvalidArgument);
        Status s = server.stop();
        EXPECT_EQ(s.code(), ErrorCode::InvalidArgument) << s.toString();
    };
    for (int ListenerParams::*field :
         {&ListenerParams::idleTimeoutMs, &ListenerParams::readTimeoutMs,
          &ListenerParams::watchdogMs, &ListenerParams::drainGraceMs,
          &ListenerParams::workers})
        refused([field](ListenerParams &p) { p.*field = 0; });
    refused([](ListenerParams &p) { p.maxPipelined = 0; });
}

TEST(Listener, DrainShutdownCompletesAdmittedWork)
{
    LocalServer server(ListenerParams{});
    util::Result<BlockingClient> client = server.connect();
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
    ListenerParams params;
    params.workers = 2;
    LocalServer server(params);
    util::Result<BlockingClient> client = server.connect();
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
    ListenerParams params;
    params.workers = 2;
    LocalServer server(params);

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
        util::Result<BlockingClient> client = server.connect();
        ASSERT_TRUE(client.ok()) << client.status().toString();
        for (int k = 0; k < kCold; ++k) {
            ASSERT_TRUE(client->sendAll(request(k)).ok());
            ASSERT_TRUE(client->recvLine(60000).ok());
        }
    }
    std::vector<BlockingClient> clients;
    for (int c = 0; c < 2; ++c) {
        util::Result<BlockingClient> client = server.connect();
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

TEST(Listener, PipelinedColdThenWarmAnswersInRequestOrder)
{
    LocalServer server(ListenerParams{});
    util::Result<BlockingClient> client = server.connect();
    ASSERT_TRUE(client.ok()) << client.status().toString();
    // The first request runs on the worker; its result opts the
    // handler in to the loop and caches the stage.
    ASSERT_TRUE(client->sendAll(quickRequest("w1") + "\n").ok());
    ASSERT_TRUE(client->recvLine(60000).ok());

    // A cold line (a fresh seed) goes to the worker; the warm line
    // behind it is answered on the loop and waits for it.
    const std::string cold =
        "{\"schema_version\": 1, \"id\": \"c1\", \"platform\": \"skl\", "
        "\"workload\": \"isx\", \"cores\": 6, \"seed\": 9400, "
        "\"warmup_us\": 5, \"measure_us\": 10}";
    ASSERT_TRUE(
        client->sendAll(cold + "\n" + quickRequest("w2") + "\n").ok());
    for (const char *id : {"c1", "w2"}) {
        util::Result<std::string> line = client->recvLine(60000);
        ASSERT_TRUE(line.ok()) << line.status().toString();
        EXPECT_NE(line->find("\"id\": \"" + std::string(id) + "\""),
                  std::string::npos)
            << *line;
        EXPECT_NE(line->find("\"code\": \"ok\""), std::string::npos)
            << *line;
    }

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_EQ(server.counter(util::names::kNetRequestsAnsweredOnLoopTotal),
              1u);
    EXPECT_EQ(server.counter(util::names::kServiceCacheMissesTotal), 2u);
    EXPECT_EQ(server.counter(util::names::kServiceCacheHitsTotal), 1u);
}

/** Who called a handler: its thread and whether onEventLoop() held. */
struct HandlerCalls
{
    std::mutex mu;
    std::vector<std::pair<std::thread::id, bool>> calls;

    void record()
    {
        std::lock_guard<std::mutex> lock(mu);
        calls.emplace_back(std::this_thread::get_id(), onEventLoop());
    }
};

TEST(Listener, HandlerThatNeverOptsInNeverRunsOnTheLoop)
{
    auto seen = std::make_shared<HandlerCalls>();
    ListenerParams params;
    params.workers = 2;
    params.handler = [seen](const std::string &, uint64_t) {
        seen->record();
        HandlerResult out;
        out.line = "{\"status\": {\"code\": \"ok\"}}";
        return out;
    };
    LocalServer server(std::move(params));
    const std::thread::id loop = server.loopThread();
    util::Result<BlockingClient> client = server.connect();
    ASSERT_TRUE(client.ok()) << client.status().toString();
    constexpr int kRequests = 20;
    std::string payload;
    for (int i = 0; i < kRequests; ++i)
        payload += "{}\n";
    ASSERT_TRUE(client->sendAll(payload).ok());
    for (int i = 0; i < kRequests; ++i)
        ASSERT_TRUE(client->recvLine(15000).ok()) << i;

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    ASSERT_EQ(seen->calls.size(), size_t(kRequests));
    for (const auto &[thread, on_loop] : seen->calls) {
        EXPECT_NE(thread, loop);
        EXPECT_FALSE(on_loop);
    }
    EXPECT_EQ(server.counter(util::names::kNetRequestsAnsweredOnLoopTotal),
              0u);
}

TEST(Listener, ForwardedServeHandlerIsAnsweredOnTheLoopAfterItsFirstRequest)
{
    // The shape of a tracing wrapper: a lambda that forwards to a
    // ServeHandler and returns its result unchanged.
    core::ResultCache cache;
    ServeHandlerParams hp;
    hp.cache = &cache;
    auto seen = std::make_shared<HandlerCalls>();
    ListenerParams params;
    params.handler = [seen, handler = ServeHandler(hp)](
                         const std::string &line, uint64_t req_no) {
        seen->record();
        return handler(line, req_no);
    };
    LocalServer server(std::move(params));
    const std::thread::id loop = server.loopThread();
    util::Result<BlockingClient> client = server.connect();
    ASSERT_TRUE(client.ok()) << client.status().toString();
    std::vector<std::string> got;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(client->sendAll(quickRequest("f1") + "\n").ok());
        util::Result<std::string> line = client->recvLine(60000);
        ASSERT_TRUE(line.ok()) << line.status().toString();
        got.push_back(*line);
    }
    // Served cold on the worker, then warm on the loop, byte for byte.
    EXPECT_EQ(got[1], got[0]);
    EXPECT_EQ(got[2], got[0]);

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    ASSERT_EQ(seen->calls.size(), 3u);
    EXPECT_NE(seen->calls[0].first, loop);
    EXPECT_FALSE(seen->calls[0].second);
    for (size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(seen->calls[i].first, loop) << i;
        EXPECT_TRUE(seen->calls[i].second) << i;
    }
    EXPECT_EQ(server.counter(util::names::kNetRequestsAnsweredOnLoopTotal),
              2u);
    EXPECT_EQ(server.counter(util::names::kServiceRequestsTotal), 3u);
}

/** Stage simulations run so far on this thread: `simulate` spans. */
uint64_t
simulateSpanCount()
{
    uint64_t n = 0;
    for (const obs::SpanTracker::Stat &s :
         obs::SpanTracker::global().stats()) {
        if (s.path.ends_with("/simulate"))
            n += s.count;
    }
    return n;
}

TEST(Listener, WarmHitRevalidatesItsProfile)
{
    // A private profile dir holding a synthetic skl profile, so the
    // test can break and restore the file a warm hit depends on.
    struct ProfileDir
    {
        std::string dir = ::testing::TempDir() + "lll_test_net_profiles_" +
                          std::to_string(::getpid());
        const char *old = std::getenv("LLL_PROFILE_DIR");
        std::string oldDir = old ? old : "";
        ProfileDir()
        {
            std::filesystem::remove_all(dir);
            std::filesystem::create_directories(dir);
            ::setenv("LLL_PROFILE_DIR", dir.c_str(), 1);
        }
        ~ProfileDir()
        {
            if (old)
                ::setenv("LLL_PROFILE_DIR", oldDir.c_str(), 1);
            else
                ::unsetenv("LLL_PROFILE_DIR");
            std::filesystem::remove_all(dir);
        }
    } profile_dir;
    const platforms::Platform skl = platforms::skl();
    const std::string path = xmem::defaultProfilePath(skl);
    auto saveGood = [&] {
        ASSERT_TRUE(test::syntheticProfile("skl", skl.peakGBs)
                        .save(path)
                        .ok());
    };
    saveGood();

    LocalServer server(ListenerParams{});
    util::Result<BlockingClient> client = server.connect();
    ASSERT_TRUE(client.ok()) << client.status().toString();
    const std::string line =
        "{\"schema_version\": 1, \"id\": \"p1\", \"platform\": \"skl\", "
        "\"workload\": \"isx\", \"cores\": 6, \"seed\": 9300, "
        "\"warmup_us\": 5, \"measure_us\": 10}";
    auto send = [&]() -> std::string {
        EXPECT_TRUE(client->sendAll(line + "\n").ok());
        util::Result<std::string> resp = client->recvLine(60000);
        EXPECT_TRUE(resp.ok()) << resp.status().toString();
        return resp.ok() ? *resp : std::string();
    };
    const std::string first = send();
    ASSERT_NE(first.find("\"code\": \"ok\""), std::string::npos) << first;
    ASSERT_EQ(send(), first); // warm

    // A profile file that no longer parses fails the warm hit exactly
    // as the batch path fails the line, and nothing simulates.
    { std::ofstream(path, std::ios::trunc) << "not a latency profile\n"; }
    core::ResultCache batch_cache;
    service::RunService::Params sp;
    sp.cache = &batch_cache;
    const uint64_t simulated = simulateSpanCount();
    const std::vector<service::RunResponse> batch =
        service::RunService(sp).serveLines({line}, 3);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_FALSE(batch[0].status.ok());
    EXPECT_EQ(simulateSpanCount(), simulated);
    EXPECT_EQ(send(), service::renderRunResponse(batch[0]));

    // Restored, the same line is served warm again, byte for byte.
    saveGood();
    EXPECT_EQ(send(), first);

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_EQ(server.counter(util::names::kServiceCacheMissesTotal), 1u);
    EXPECT_EQ(server.counter(util::names::kServiceCacheHitsTotal), 2u);
    EXPECT_EQ(server.counter(util::names::kServiceRequestsFailedTotal), 1u);
}

/** A path for a unix socket test, unique to this process, holding a
 *  regular file when @p contents is given. */
std::string
unixTestPath(const char *name, const char *contents = nullptr)
{
    const std::string path = ::testing::TempDir() + "lll_test_net_" +
                             std::to_string(::getpid()) + "_" + name;
    if (contents != nullptr)
        std::ofstream(path) << contents;
    return path;
}

TEST(Listener, UnixSocketServes)
{
    const std::string path = unixTestPath("serves");
    ListenerParams params;
    params.unixPath = path;
    LocalServer server(std::move(params));

    util::Result<BlockingClient> client =
        BlockingClient::connectUnix(path);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client->sendAll(quickRequest("u1") + "\n").ok());
    util::Result<std::string> line = client->recvLine(30000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_NE(line->find("\"id\": \"u1\""), std::string::npos);

    Status run = server.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    // The listener unlinks the socket file it made.
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Listener, UnixPathHoldingARegularFileIsRefusedAndKept)
{
    // Only a socket file is replaced; any other file is not the
    // listener's to delete.
    const std::string path = unixTestPath("regular", "keep me\n");
    ListenerParams params;
    params.unixPath = path;
    LocalServer server(std::move(params));
    Status s = server.stop();
    EXPECT_EQ(s.code(), ErrorCode::IoError) << s.toString();
    EXPECT_NE(s.toString().find("is not a socket"), std::string::npos)
        << s.toString();
    EXPECT_TRUE(std::filesystem::is_regular_file(path));
    EXPECT_EQ(std::filesystem::file_size(path), 8u);
    std::filesystem::remove(path);
}

/** One request over the unix socket at @p path answers ok. */
void
expectServedOverUnix(const std::string &path, const std::string &id)
{
    util::Result<BlockingClient> client = BlockingClient::connectUnix(path);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client->sendAll(quickRequest(id) + "\n").ok());
    util::Result<std::string> line = client->recvLine(60000);
    ASSERT_TRUE(line.ok()) << line.status().toString();
    EXPECT_NE(line->find("\"id\": \"" + id + "\""), std::string::npos);
    EXPECT_NE(line->find("\"code\": \"ok\""), std::string::npos);
}

TEST(Listener, SecondServerOnALiveUnixPathIsRefused)
{
    const std::string path = unixTestPath("live");
    ListenerParams params;
    params.unixPath = path;
    LocalServer first(params);
    ASSERT_TRUE(first.connect().ok());

    LocalServer second(params);
    Status s = second.stop();
    EXPECT_EQ(s.code(), ErrorCode::IoError) << s.toString();
    EXPECT_NE(s.toString().find("unix socket path " + path + " is in use"),
              std::string::npos)
        << s.toString();

    // The first server still owns the path and serves on it.
    expectServedOverUnix(path, "u2");
    Status run = first.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Listener, ClosingLeavesAReplacedUnixSocketFileAlone)
{
    const std::string path = unixTestPath("replaced");
    ListenerParams params;
    params.unixPath = path;
    LocalServer first(params);
    ASSERT_TRUE(first.connect().ok());

    // The file goes away under the first server, and a second one
    // binds the path; the first must not unlink it when it closes.
    std::filesystem::remove(path);
    LocalServer second(params);
    ASSERT_TRUE(second.connect().ok());
    Status run = first.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_TRUE(std::filesystem::is_socket(path));
    expectServedOverUnix(path, "u3");

    run = second.stop();
    EXPECT_TRUE(run.ok()) << run.toString();
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Listener, FailedStartKeepsAUnixPathItNeverBound)
{
    // The TCP bind fails first, so the listener never reaches the unix
    // path and must not unlink what is there when it closes.
    LocalServer holder(ListenerParams{});
    const std::string path = unixTestPath("unbound", "keep me\n");
    ListenerParams params;
    params.tcpPort = holder.port();
    params.unixPath = path;
    params.handler = ServeHandler(ServeHandlerParams{});
    {
        Listener listener(std::move(params));
        Status s = listener.start();
        EXPECT_EQ(s.code(), ErrorCode::IoError) << s.toString();
        EXPECT_NE(s.toString().find("bind"), std::string::npos)
            << s.toString();
    }
    EXPECT_TRUE(std::filesystem::is_regular_file(path));
    std::filesystem::remove(path);
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
    LocalServer server(std::move(params));

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

TEST(LoadGen, ConnectionsSendEachLineOncePerPass)
{
    // A --requests file of distinct (say, cold) lines: the connections
    // share it out, so in less than one pass the server sees no line
    // twice.
    struct Seen
    {
        std::mutex mu;
        std::map<std::string, int> count;
    };
    auto seen = std::make_shared<Seen>();
    ListenerParams params;
    params.handler = [seen](const std::string &line, uint64_t) {
        {
            std::lock_guard<std::mutex> lock(seen->mu);
            ++seen->count[line];
        }
        HandlerResult out;
        out.line = "{\"status\": {\"code\": \"ok\"}}";
        return out;
    };
    LocalServer server(std::move(params));

    LoadGenParams lp;
    lp.port = server.port();
    lp.connections = 4;
    lp.pipeline = 1;
    lp.qps = 400.0;
    lp.durationS = 0.5;
    for (int i = 0; i < 4096; ++i)
        lp.requestLines.push_back("{\"id\": \"c" + std::to_string(i) + "\"}");
    util::Result<LoadGenReport> rep = runLoadGen(lp);
    ASSERT_TRUE(rep.ok()) << rep.status().toString();
    ASSERT_EQ(rep->received, rep->sent);
    ASSERT_GT(rep->sent, 8u);
    ASSERT_LT(rep->sent, lp.requestLines.size());

    std::lock_guard<std::mutex> lock(seen->mu);
    EXPECT_EQ(seen->count.size(), rep->sent);
    for (const auto &[line, n] : seen->count)
        EXPECT_EQ(n, 1) << line;
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
    LocalServer server(std::move(params));

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
