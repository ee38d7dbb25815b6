/**
 * @file
 * Unit tests for the `lll bench` layer (src/perf): kernel registry,
 * trial statistics, BENCH_*.json serialization (golden schema file,
 * round-trip) and the CI ratchet comparator.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "perf/bench_report.hh"
#include "perf/microbench.hh"
#include "util/json.hh"

using namespace lll;

namespace
{

/** A fixed synthetic report: every number formats exactly in %.17g. */
perf::BenchReport
syntheticReport()
{
    perf::BenchReport report;
    report.rev = "golden";
    report.trials = 3;
    report.warmupMs = 1.5;
    report.measureMs = 2.5;

    perf::KernelStats k;
    k.name = "event_queue";
    k.trials = 3;
    k.batches = 10;
    k.items = 640;
    k.trialEventsPerSec = {1000000.0, 1500000.0, 2000000.0};
    k.minEps = 1000000.0;
    k.medianEps = 1500000.0;
    k.maxEps = 2000000.0;
    k.iqrEps = 500000.0;
    k.p50ItemNs = 64.0;
    k.p90ItemNs = 128.0;
    k.p99ItemNs = 256.0;
    report.kernels.push_back(std::move(k));
    return report;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

TEST(Microbench, RegistryHasTheSimMicroKernels)
{
    const std::vector<perf::KernelInfo> &ks = perf::kernels();
    ASSERT_EQ(ks.size(), 7u);
    EXPECT_EQ(ks[0].name, "event_queue");
    EXPECT_EQ(ks[1].name, "event_dispatch");
    EXPECT_EQ(ks[2].name, "mshr");
    EXPECT_EQ(ks[3].name, "op_stream");
    EXPECT_EQ(ks[4].name, "cache_hit");
    EXPECT_EQ(ks[5].name, "system_step");
    EXPECT_EQ(ks[6].name, "system_step_sampled");
    EXPECT_NE(perf::findKernel("mshr"), nullptr);
    EXPECT_EQ(perf::findKernel("nope"), nullptr);
}

TEST(Microbench, QuantileSortedInterpolates)
{
    EXPECT_DOUBLE_EQ(perf::quantileSorted({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(perf::quantileSorted({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(perf::quantileSorted({7.0}, 1.0), 7.0);
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(perf::quantileSorted(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(perf::quantileSorted(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(perf::quantileSorted(v, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(perf::quantileSorted(v, 0.25), 1.75);
}

TEST(Microbench, RunKernelCollectsTrialStats)
{
    const perf::KernelInfo *k = perf::findKernel("mshr");
    ASSERT_NE(k, nullptr);
    perf::TrialParams tp;
    tp.trials = 3;
    tp.warmupMs = 1.0;
    tp.measureMs = 2.0;
    perf::KernelStats stats = perf::runKernel(*k, tp);

    EXPECT_EQ(stats.name, "mshr");
    EXPECT_EQ(stats.trials, 3);
    ASSERT_EQ(stats.trialEventsPerSec.size(), 3u);
    EXPECT_GT(stats.batches, 0u);
    EXPECT_GT(stats.items, stats.batches);    // >1 item per batch
    EXPECT_GT(stats.minEps, 0.0);
    EXPECT_GE(stats.medianEps, stats.minEps);
    EXPECT_GE(stats.maxEps, stats.medianEps);
    EXPECT_GE(stats.iqrEps, 0.0);
    // Latency quantiles come from the histogram and are ordered.
    EXPECT_GT(stats.p50ItemNs, 0.0);
    EXPECT_LE(stats.p50ItemNs, stats.p90ItemNs);
    EXPECT_LE(stats.p90ItemNs, stats.p99ItemNs);
    EXPECT_EQ(stats.itemNs.total(), stats.batches);
}

TEST(BenchReport, JsonMatchesGoldenSchemaFile)
{
    // Byte-for-byte golden: consumers (the CI ratchet, plotting) parse
    // this schema, so any change must be a conscious golden update.
    const std::string json = perf::benchReportJson(syntheticReport());
    const std::string golden =
        readFile(std::string(LLL_TEST_GOLDEN_DIR) + "/bench_schema.json");
    ASSERT_FALSE(golden.empty())
        << "missing golden file tests/golden/bench_schema.json";
    EXPECT_EQ(json, golden);
}

TEST(BenchReport, RoundTripsThroughJson)
{
    const perf::BenchReport report = syntheticReport();
    util::Result<perf::BenchReport> back =
        perf::parseBenchReport(perf::benchReportJson(report));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->schemaVersion, perf::kBenchSchemaVersion);
    EXPECT_EQ(back->rev, "golden");
    EXPECT_EQ(back->trials, 3);
    ASSERT_EQ(back->kernels.size(), 1u);
    const perf::KernelStats &k = back->kernels[0];
    EXPECT_EQ(k.name, "event_queue");
    EXPECT_DOUBLE_EQ(k.medianEps, 1500000.0);
    EXPECT_DOUBLE_EQ(k.minEps, 1000000.0);
    EXPECT_DOUBLE_EQ(k.iqrEps, 500000.0);
    ASSERT_EQ(k.trialEventsPerSec.size(), 3u);
    EXPECT_DOUBLE_EQ(k.trialEventsPerSec[2], 2000000.0);
    EXPECT_DOUBLE_EQ(k.p90ItemNs, 128.0);
}

TEST(BenchReport, QuotesAndBackslashesInNamesRoundTrip)
{
    // `lll bench --rev 'a"b'` must still write a report that --compare
    // can read back.
    perf::BenchReport report = syntheticReport();
    report.rev = "a\"b\\c";
    report.kernels[0].name = "k\"\\";
    util::Result<util::JsonValue> doc =
        util::parseJson(perf::benchReportJson(report));
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    util::Result<perf::BenchReport> back =
        perf::parseBenchReport(perf::benchReportJson(report));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->rev, report.rev);
    ASSERT_EQ(back->kernels.size(), 1u);
    EXPECT_EQ(back->kernels[0].name, report.kernels[0].name);
}

TEST(BenchReport, ParsesFullEnvelopeToo)
{
    // `--compare` accepts a file produced by `lll bench --json`, which
    // wraps the report in the standard envelope under "data".
    std::ostringstream envelope;
    envelope << "{\"schema_version\": 1, \"command\": \"bench\", "
             << "\"status\": {\"code\": \"ok\", \"exit\": 0, "
             << "\"message\": \"\"}, \"data\": "
             << perf::benchReportJson(syntheticReport())
             << ", \"telemetry\": null}";
    util::Result<perf::BenchReport> back =
        perf::parseBenchReport(envelope.str());
    ASSERT_TRUE(back.ok()) << back.status().toString();
    ASSERT_EQ(back->kernels.size(), 1u);
    EXPECT_EQ(back->kernels[0].name, "event_queue");
}

TEST(BenchReport, ParseRejectsGarbage)
{
    EXPECT_FALSE(perf::parseBenchReport("not json").ok());
    EXPECT_FALSE(perf::parseBenchReport("{\"data\": 7}").ok());
}

TEST(BenchComparison, PassesWithinTolerance)
{
    perf::BenchReport base = syntheticReport();
    perf::BenchReport cur = syntheticReport();
    cur.kernels[0].medianEps = base.kernels[0].medianEps * 0.9;
    perf::BenchComparison cmp =
        perf::compareBenchReports(base, cur, 0.15);
    EXPECT_TRUE(cmp.ok());
    ASSERT_EQ(cmp.rows.size(), 1u);
    EXPECT_FALSE(cmp.rows[0].regressed);
    EXPECT_NEAR(cmp.rows[0].ratio, 0.9, 1e-12);
    EXPECT_NE(cmp.render().find("ratchet: ok"), std::string::npos);
}

TEST(BenchComparison, FailsOnInjectedTwoXSlowdown)
{
    // The acceptance demonstration: halving events/sec must trip the
    // 15% ratchet.
    perf::BenchReport base = syntheticReport();
    perf::BenchReport cur = syntheticReport();
    cur.kernels[0].medianEps = base.kernels[0].medianEps * 0.5;
    perf::BenchComparison cmp =
        perf::compareBenchReports(base, cur, 0.15);
    EXPECT_FALSE(cmp.ok());
    ASSERT_EQ(cmp.rows.size(), 1u);
    EXPECT_TRUE(cmp.rows[0].regressed);
    EXPECT_NE(cmp.render().find("REGRESSION"), std::string::npos);
}

TEST(BenchComparison, MissingKernelRegressesNewKernelIgnored)
{
    perf::BenchReport base = syntheticReport();
    perf::BenchReport cur = syntheticReport();

    // A kernel new in the current run must not fail the ratchet.
    perf::KernelStats fresh;
    fresh.name = "brand_new";
    fresh.medianEps = 1.0;
    cur.kernels.push_back(std::move(fresh));
    EXPECT_TRUE(perf::compareBenchReports(base, cur, 0.15).ok());

    // A baseline kernel missing from the current run is lost coverage.
    cur.kernels.erase(cur.kernels.begin());
    perf::BenchComparison cmp =
        perf::compareBenchReports(base, cur, 0.15);
    EXPECT_FALSE(cmp.ok());
    ASSERT_GE(cmp.rows.size(), 1u);
    EXPECT_TRUE(cmp.rows[0].missing);
    EXPECT_TRUE(cmp.rows[0].regressed);
}
