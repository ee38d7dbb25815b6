/**
 * @file
 * Tests for the machine-readable exporters (obs::exportJson /
 * obs::exportCsv) and the RequestTracer's CSV/JSON serialization,
 * including ring-wrap and empty-trace edge cases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/export.hh"
#include "obs/registry.hh"
#include "obs/span.hh"
#include "sim/tracer.hh"
#include "test_common.hh"

using namespace lll;

namespace
{

/** Structural JSON sanity: balanced {} / [] outside string literals. */
bool
balancedJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false, escaped = false;
    for (char c : s) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (in_string) {
            if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{': case '[': ++depth; break;
          case '}': case ']': --depth; break;
          default: break;
        }
        if (depth < 0)
            return false;
    }
    return depth == 0 && !in_string;
}

obs::MetricRegistry
populatedRegistry()
{
    obs::MetricRegistry reg;
    reg.counter("c.events").increment(3);
    reg.setGauge("g.level", 2.5);
    reg.histogram("h.lat").sample(100.0);
    reg.histogram("h.lat").sample(200.0);
    obs::GaugeOptions opt;
    opt.sampled = true;
    double v = 1.0;
    reg.registerGauge("g.live", [&v] { return v; },
                      obs::GaugeMode::Callback, opt);
    reg.sampleAll(250 * ticksPerNs);
    v = 2.0;
    reg.sampleAll(500 * ticksPerNs);
    reg.freezeGauge("g.live");
    reg.annotate("meta.note", "hello \"world\"\n");
    return reg;
}

} // namespace

TEST(ExportJson, NonFiniteGaugeBecomesNull)
{
    obs::MetricRegistry reg;
    reg.setGauge("g.half", 1.5);
    reg.setGauge("g.nan", std::nan(""));
    reg.setGauge("g.inf", 1.0 / 0.0);
    const std::string json = obs::exportJson(reg);
    EXPECT_NE(json.find("\"g.half\": 1.5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"g.nan\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"g.inf\": null"), std::string::npos) << json;
}

TEST(ExportJson, ContainsAllSections)
{
    obs::MetricRegistry reg = populatedRegistry();
    std::string json = obs::exportJson(reg);
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"c.events\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"g.level\": 2.5"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"series\""), std::string::npos);
    EXPECT_NE(json.find("\"annotations\""), std::string::npos);
    // The escaped annotation survived.
    EXPECT_NE(json.find("hello \\\"world\\\"\\n"), std::string::npos);
    // No spans argument: no spans section.
    EXPECT_EQ(json.find("\"spans\""), std::string::npos);
}

TEST(ExportJson, HistogramsCarryQuantileTrio)
{
    obs::MetricRegistry reg = populatedRegistry();
    std::string json = obs::exportJson(reg);
    // Serve latency reporting reads p50/p90/p99 from the same export.
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p90\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    // p90 sits between the other two in the serialized order.
    const size_t p50 = json.find("\"p50\"");
    const size_t p90 = json.find("\"p90\"");
    const size_t p99 = json.find("\"p99\"");
    EXPECT_LT(p50, p90);
    EXPECT_LT(p90, p99);
}

TEST(ExportJson, SeriesCarriesSamples)
{
    obs::MetricRegistry reg = populatedRegistry();
    std::string json = obs::exportJson(reg);
    // Sampled at 250 ns and 500 ns with values 1 and 2.
    EXPECT_NE(json.find("\"g.live\""), std::string::npos);
    EXPECT_NE(json.find("[250, 1]"), std::string::npos);
    EXPECT_NE(json.find("[500, 2]"), std::string::npos);
}

TEST(ExportJson, SpansAndExtraSections)
{
    obs::MetricRegistry reg;
    obs::SpanTracker spans;
    {
        obs::ScopedSpan a("phase.a", spans);
        obs::ScopedSpan b("phase.b", spans);
    }
    std::vector<obs::JsonSection> extra{
        {"trace", "{\"total\": 7, \"events\": []}"}};
    std::string json = obs::exportJson(reg, &spans, extra);
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("\"phase.a\""), std::string::npos);
    EXPECT_NE(json.find("\"phase.a/phase.b\""), std::string::npos);
    EXPECT_NE(json.find("\"trace\": {\"total\": 7"), std::string::npos);
}

TEST(ExportCsv, LongFormRoundTrip)
{
    obs::MetricRegistry reg = populatedRegistry();
    std::string csv = obs::exportCsv(reg);

    std::istringstream in(csv);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "metric,when_ns,value");

    size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        // metric,when_ns,value — two commas, parseable fields.
        size_t c1 = line.find(',');
        size_t c2 = line.find(',', c1 + 1);
        ASSERT_NE(c1, std::string::npos) << line;
        ASSERT_NE(c2, std::string::npos) << line;
        EXPECT_EQ(line.substr(0, c1), "g.live");
        double when = std::stod(line.substr(c1 + 1, c2 - c1 - 1));
        double value = std::stod(line.substr(c2 + 1));
        EXPECT_DOUBLE_EQ(value, when == 250.0 ? 1.0 : 2.0);
    }
    EXPECT_EQ(rows, 2u);
}

TEST(WriteExport, WritesFileAndReportsFailure)
{
    std::string path = ::testing::TempDir() + "lll_export_test.json";
    EXPECT_TRUE(obs::writeExport(path, "{\"ok\": true}"));
    FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(buf, n), "{\"ok\": true}");

    EXPECT_FALSE(obs::writeExport("/nonexistent-dir/x/y.json", "{}"));
}

TEST(RequestTracerCsv, EmptyTraceIsHeaderOnly)
{
    sim::RequestTracer t(8);
    EXPECT_EQ(t.toCsv(), "when_ns,line_addr,type,core,latency_ns\n");
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.total(), 0u);
    EXPECT_DOUBLE_EQ(t.localityScore(), 0.0);
}

TEST(RequestTracerCsv, RingWrapKeepsNewestInOrder)
{
    sim::RequestTracer t(4);
    for (int i = 0; i < 10; ++i) {
        t.record(static_cast<Tick>(i) * ticksPerNs,
                 100 + static_cast<uint64_t>(i), sim::ReqType::DemandLoad,
                 0, 50.0);
    }
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.total(), 10u);

    std::string csv = t.toCsv();
    std::istringstream in(csv);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));   // header
    // The four retained rows are the last four recorded, oldest first.
    for (int i = 6; i < 10; ++i) {
        ASSERT_TRUE(std::getline(in, line));
        std::ostringstream expect;
        expect << i << ".000," << 100 + i << ",DemandLoad,0,50.00";
        EXPECT_EQ(line, expect.str());
    }
    EXPECT_FALSE(std::getline(in, line));
}

TEST(RequestTracerJson, WindowSplicesIntoExport)
{
    sim::RequestTracer t(8);
    t.record(1 * ticksPerNs, 42, sim::ReqType::HwPrefetch, 1, 80.5);
    t.record(2 * ticksPerNs, 43, sim::ReqType::Writeback, 2, 0.0);

    std::string tj = t.toJson();
    EXPECT_TRUE(balancedJson(tj)) << tj;
    EXPECT_NE(tj.find("\"total\": 2"), std::string::npos);
    EXPECT_NE(tj.find("\"line_addr\": 42"), std::string::npos);
    EXPECT_NE(tj.find("\"type\": \"HwPrefetch\""), std::string::npos);
    EXPECT_NE(tj.find("\"type\": \"Writeback\""), std::string::npos);

    obs::MetricRegistry reg;
    std::vector<obs::JsonSection> extra{{"trace", tj}};
    std::string json = obs::exportJson(reg, nullptr, extra);
    EXPECT_TRUE(balancedJson(json)) << json;
    EXPECT_NE(json.find("\"trace\""), std::string::npos);
}

TEST(RequestTracerJson, EmptyTrace)
{
    sim::RequestTracer t(4);
    EXPECT_EQ(t.toJson(), "{\"total\": 0, \"events\": []}");
}

TEST(LocalityScore, StreamingVsScattered)
{
    sim::RequestTracer streaming(64);
    for (int i = 0; i < 32; ++i)
        streaming.record(i, 1000 + static_cast<uint64_t>(i),
                         sim::ReqType::DemandLoad, 0, 50.0);
    EXPECT_GT(streaming.localityScore(), 0.9);

    sim::RequestTracer scattered(64);
    for (int i = 0; i < 32; ++i)
        scattered.record(i, static_cast<uint64_t>(i) * 100003,
                         sim::ReqType::DemandLoad, 0, 50.0);
    EXPECT_LT(scattered.localityScore(), 0.1);
}

TEST(ExportIntegration, SimulatedRunProducesCompleteJson)
{
    platforms::Platform p = test::tinyPlatform();
    sim::SystemParams sp = p.sysParams(2, 1);

    obs::MetricRegistry reg;
    sim::RequestTracer tracer(1 << 10);
    {
        sim::System sys(sp, test::randomKernel(8, 4.0));
        sys.mem().setTracer(&tracer);
        obs::Sampler::Params params;
        params.cadence = 100 * ticksPerNs;
        sys.attachObservability(reg, params);
        test::runOk(sys, 2.0, 10.0);
    }

    std::vector<obs::JsonSection> extra{{"trace", tracer.toJson()}};
    std::string json =
        obs::exportJson(reg, &obs::SpanTracker::global(), extra);
    EXPECT_TRUE(balancedJson(json));
    EXPECT_NE(json.find("sim.mshr.l1.0.occupancy"), std::string::npos);
    EXPECT_NE(json.find("sim.memctrl.bw_gbps"), std::string::npos);
    EXPECT_NE(json.find("\"trace\""), std::string::npos);

    std::string csv = obs::exportCsv(reg);
    EXPECT_NE(csv.find("sim.mshr.l1.0.occupancy,"), std::string::npos);
}

TEST(JsonEnvelope, WrapsDataAndTelemetryUnderOneSchema)
{
    std::string env = obs::jsonEnvelope(
        "analyze", util::Status::okStatus(), 0,
        "{\"throughput\": 1.5}", "{\"counters\": {}}");
    EXPECT_TRUE(balancedJson(env)) << env;
    EXPECT_NE(env.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(env.find("\"command\": \"analyze\""), std::string::npos);
    EXPECT_NE(env.find("\"status\": {\"code\": \"ok\", \"exit\": 0, "
                       "\"message\": \"\"}"),
              std::string::npos)
        << env;
    EXPECT_NE(env.find("\"data\": {\"throughput\": 1.5}"),
              std::string::npos);
    EXPECT_NE(env.find("\"telemetry\": {\"counters\": {}}"),
              std::string::npos);
}

TEST(JsonEnvelope, EmptySectionsBecomeNull)
{
    std::string env = obs::jsonEnvelope(
        "lint",
        util::Status::error(util::ErrorCode::FailedPrecondition,
                            "2 infeasible configs"),
        3, "", "  \n ");
    EXPECT_TRUE(balancedJson(env)) << env;
    EXPECT_NE(env.find("\"code\": \"failed-precondition\""),
              std::string::npos)
        << env;
    EXPECT_NE(env.find("\"exit\": 3"), std::string::npos);
    EXPECT_NE(env.find("\"message\": \"2 infeasible configs\""),
              std::string::npos);
    EXPECT_NE(env.find("\"data\": null"), std::string::npos);
    EXPECT_NE(env.find("\"telemetry\": null"), std::string::npos);
}

TEST(JsonEnvelope, EscapesStatusMessages)
{
    std::string env = obs::jsonEnvelope(
        "trace",
        util::Status::error(util::ErrorCode::CorruptData,
                            "bad \"quote\"\nand newline"),
        3, "");
    EXPECT_TRUE(balancedJson(env)) << env;
    EXPECT_NE(env.find("bad \\\"quote\\\"\\nand newline"),
              std::string::npos)
        << env;
}
