/**
 * @file
 * Unit tests for the observability primitives (src/obs): counters,
 * gauges in all three modes, log2 histograms, time-series rings, the
 * registry, span nesting, and the sampler driven by a real simulated
 * System.
 */

#include <gtest/gtest.h>

#include "obs/metric.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "test_common.hh"

using namespace lll;

TEST(CounterMetric, IncrementsAndResets)
{
    obs::CounterMetric c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c.increment(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeMetric, ValueMode)
{
    obs::GaugeMetric g;
    EXPECT_DOUBLE_EQ(g.read(), 0.0);
    g.set(3.5);
    EXPECT_DOUBLE_EQ(g.read(), 3.5);
}

TEST(GaugeMetric, CallbackModeAppliesScale)
{
    double level = 10.0;
    obs::GaugeMetric g([&] { return level; }, obs::GaugeMode::Callback,
                       2.0);
    EXPECT_DOUBLE_EQ(g.read(), 20.0);
    level = 7.0;
    EXPECT_DOUBLE_EQ(g.read(), 14.0);
}

TEST(GaugeMetric, RateModeDerivesPerNs)
{
    double bytes = 0.0;
    obs::GaugeMetric g([&] { return bytes; }, obs::GaugeMode::Rate);

    g.advance(0);                    // establishes the baseline
    EXPECT_DOUBLE_EQ(g.read(), 0.0);

    bytes = 1000.0;
    g.advance(10 * ticksPerNs);      // 1000 bytes over 10 ns
    EXPECT_DOUBLE_EQ(g.read(), 100.0);

    bytes = 1000.0;                  // flat interval
    g.advance(20 * ticksPerNs);
    EXPECT_DOUBLE_EQ(g.read(), 0.0);
}

TEST(GaugeMetric, RateModeClampsDropToZero)
{
    double level = 500.0;
    obs::GaugeMetric g([&] { return level; }, obs::GaugeMode::Rate);
    g.advance(0);
    level = 100.0;                   // stats reset between snapshots
    g.advance(10 * ticksPerNs);
    EXPECT_DOUBLE_EQ(g.read(), 0.0);
    level = 200.0;                   // recovers from the new baseline
    g.advance(20 * ticksPerNs);
    EXPECT_DOUBLE_EQ(g.read(), 10.0);
}

TEST(Log2Histogram, BucketsByPowerOfTwo)
{
    obs::Log2Histogram h;
    h.sample(0.5);    // bucket 0: < 1
    h.sample(1.0);    // bucket 1: [1, 2)
    h.sample(3.0);    // bucket 2: [2, 4)
    h.sample(3.9);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_DOUBLE_EQ(obs::Log2Histogram::bucketUpper(2), 4.0);
    EXPECT_NEAR(h.mean(), (0.5 + 1.0 + 3.0 + 3.9) / 4.0, 1e-9);
    EXPECT_LE(h.percentile(0.5), 4.0);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
}

TEST(Log2Histogram, PercentileEmptyAndSingleSample)
{
    obs::Log2Histogram h;
    // Empty: every percentile is a defined 0.0, never a 0-division.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);

    // A single sample answers every percentile with the exact value,
    // not a bucket boundary (42 sits in [32, 64)).
    h.sample(42.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.0);
}

TEST(Log2Histogram, PercentileInterpolatesWithinBucket)
{
    // 100 samples spread inside one bucket [64, 128): interpolation
    // must move monotonically through the bucket instead of answering
    // the same boundary for every rank.
    obs::Log2Histogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(64.0 + 0.63 * i);
    const double p10 = h.percentile(0.10);
    const double p50 = h.percentile(0.50);
    const double p90 = h.percentile(0.90);
    EXPECT_LT(p10, p50);
    EXPECT_LT(p50, p90);
    // Within-bucket error bound: the answer stays inside the bucket,
    // so it is within one bucket width of the true value.
    EXPECT_GE(p10, h.min());
    EXPECT_LE(p90, h.max());
    EXPECT_NEAR(p50, 64.0 + 0.63 * 50, 64.0);
}

TEST(Log2Histogram, PercentileOverflowTopBucketClampsToMax)
{
    // Values past 2^62 land in the overflow top bucket, whose nominal
    // upper bound is 2^63; the observed-max clamp keeps the answer a
    // value that actually occurred.
    obs::Log2Histogram h;
    const double huge = 8.0e18;    // > 2^62
    h.sample(huge);
    h.sample(huge * 1.1);
    h.sample(1.0);
    EXPECT_EQ(h.bucket(obs::Log2Histogram::kBuckets - 1), 2u);
    EXPECT_LE(h.percentile(0.99), h.max());
    EXPECT_DOUBLE_EQ(h.percentile(1.0), huge * 1.1);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
}

TEST(Log2Histogram, PercentileZeroAndOneAreExactMinMax)
{
    obs::Log2Histogram h;
    h.sample(3.0);
    h.sample(5.0);
    h.sample(900.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 900.0);
    // Out-of-range fractions behave like the endpoints.
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), 3.0);
    EXPECT_DOUBLE_EQ(h.percentile(2.0), 900.0);
}

TEST(Log2Histogram, MergeCombinesMinMaxAndRanks)
{
    obs::Log2Histogram a, b;
    a.sample(2.0);
    a.sample(4.0);
    b.sample(1000.0);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 1000.0);
    EXPECT_DOUBLE_EQ(a.percentile(1.0), 1000.0);

    // Merging an empty histogram is a no-op on the observed range.
    obs::Log2Histogram empty;
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 1000.0);
}

TEST(TimeSeries, RingWrapKeepsNewestInOrder)
{
    obs::TimeSeries ts(4);
    for (int i = 0; i < 10; ++i)
        ts.push(static_cast<Tick>(i) * ticksPerNs, i * 1.0);
    EXPECT_EQ(ts.size(), 4u);
    EXPECT_EQ(ts.total(), 10u);
    std::vector<obs::TimeSeries::Sample> s = ts.samples();
    ASSERT_EQ(s.size(), 4u);
    // Oldest-first and strictly the last four pushed.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(s[i].when, static_cast<Tick>(6 + i) * ticksPerNs);
        EXPECT_DOUBLE_EQ(s[i].value, 6.0 + i);
    }
    ts.clear();
    EXPECT_EQ(ts.size(), 0u);
    EXPECT_EQ(ts.total(), 0u);
}

TEST(MetricRegistry, CounterAndGaugeByName)
{
    obs::MetricRegistry reg;
    ++reg.counter("a.events");
    ++reg.counter("a.events");
    EXPECT_EQ(reg.counter("a.events").value(), 2u);

    reg.setGauge("a.level", 5.0);
    EXPECT_DOUBLE_EQ(reg.gauges().at("a.level").read(), 5.0);
    reg.setGauge("a.level", 6.0);
    EXPECT_DOUBLE_EQ(reg.gauges().at("a.level").read(), 6.0);

    reg.annotate("a.kind", "demo");
    EXPECT_EQ(reg.annotations().at("a.kind"), "demo");
}

TEST(MetricRegistry, SampleAllSnapshotsSampledGaugesOnly)
{
    obs::MetricRegistry reg;
    double level = 1.0;
    obs::GaugeOptions sampled;
    sampled.sampled = true;
    reg.registerGauge("s.live", [&] { return level; },
                      obs::GaugeMode::Callback, sampled);
    reg.registerGauge("s.quiet", [&] { return level; },
                      obs::GaugeMode::Callback);

    reg.sampleAll(1 * ticksPerNs);
    level = 2.0;
    reg.sampleAll(2 * ticksPerNs);

    ASSERT_NE(reg.series("s.live"), nullptr);
    EXPECT_EQ(reg.series("s.live")->size(), 2u);
    EXPECT_EQ(reg.series("s.quiet"), nullptr);
    EXPECT_EQ(reg.snapshots(), 2u);

    std::vector<obs::TimeSeries::Sample> s =
        reg.series("s.live")->samples();
    EXPECT_DOUBLE_EQ(s[0].value, 1.0);
    EXPECT_DOUBLE_EQ(s[1].value, 2.0);
}

TEST(MetricRegistry, FreezeGaugeKeepsLastValue)
{
    obs::MetricRegistry reg;
    {
        double local = 9.0;
        obs::GaugeOptions opt;
        opt.sampled = true;
        reg.registerGauge("f.g", [&] { return local; },
                          obs::GaugeMode::Callback, opt);
        EXPECT_DOUBLE_EQ(reg.gauges().at("f.g").read(), 9.0);
        reg.freezeGauge("f.g");
    }
    // The reader's captured reference is gone; the value must survive.
    EXPECT_DOUBLE_EQ(reg.gauges().at("f.g").read(), 9.0);
    EXPECT_TRUE(reg.gauges().at("f.g").sampled());
    // Sampling a frozen gauge is safe.
    reg.sampleAll(1 * ticksPerNs);
    EXPECT_DOUBLE_EQ(reg.series("f.g")->samples().back().value, 9.0);
}

TEST(MetricRegistry, ClearDropsEverything)
{
    obs::MetricRegistry reg;
    ++reg.counter("x");
    reg.setGauge("y", 1.0);
    reg.histogram("z").sample(2.0);
    reg.clear();
    EXPECT_TRUE(reg.counters().empty());
    EXPECT_TRUE(reg.gauges().empty());
    EXPECT_TRUE(reg.histograms().empty());
    EXPECT_TRUE(reg.allSeries().empty());
}

TEST(SpanTracker, NestingAggregatesByPath)
{
    obs::SpanTracker t;
    for (int i = 0; i < 3; ++i) {
        obs::ScopedSpan outer("outer", t);
        obs::ScopedSpan inner("inner", t);
    }
    {
        obs::ScopedSpan lone("outer", t);
    }
    EXPECT_EQ(t.depth(), 0u);

    std::vector<obs::SpanTracker::Stat> stats = t.stats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].path, "outer");
    EXPECT_EQ(stats[0].depth, 1u);
    EXPECT_EQ(stats[0].count, 4u);
    EXPECT_EQ(stats[1].path, "outer/inner");
    EXPECT_EQ(stats[1].depth, 2u);
    EXPECT_EQ(stats[1].count, 3u);
    EXPECT_GE(stats[0].wallNs, stats[1].wallNs);

    t.reset();
    EXPECT_TRUE(t.stats().empty());
}

TEST(SpanTracker, MacroUsesGlobalTracker)
{
    obs::SpanTracker::global().reset();
    {
        LLL_SPAN("macro.test");
    }
    std::vector<obs::SpanTracker::Stat> stats =
        obs::SpanTracker::global().stats();
    bool found = false;
    for (const obs::SpanTracker::Stat &s : stats)
        found = found || s.path == "macro.test";
    EXPECT_TRUE(found);
    obs::SpanTracker::global().reset();
}

TEST(Sampler, SystemDrivesPeriodicSnapshots)
{
    platforms::Platform p = test::tinyPlatform();
    sim::SystemParams sp = p.sysParams(2, 1);
    sim::KernelSpec spec = test::randomKernel(8, 4.0);

    obs::MetricRegistry reg;
    {
        sim::System sys(sp, spec);
        obs::Sampler::Params params;
        params.cadence = 100 * ticksPerNs;
        sys.attachObservability(reg, params);
        test::runOk(sys, 2.0, 10.0);   // 12 us of simulated time, 100 ns cadence
    }

    // The acceptance bar: at least 10 MSHR occupancy samples.
    const obs::TimeSeries *occ = reg.series("sim.mshr.l1.0.occupancy");
    ASSERT_NE(occ, nullptr);
    EXPECT_GE(occ->size(), 10u);

    // Under random access with a window past the L1 MSHR count, the
    // occupancy snapshots should actually see queued misses.
    double peak = 0.0;
    for (const obs::TimeSeries::Sample &s : occ->samples())
        peak = std::max(peak, s.value);
    EXPECT_GT(peak, 0.0);

    // The bandwidth rate gauge must have produced positive samples.
    const obs::TimeSeries *bw = reg.series("sim.memctrl.bw_gbps");
    ASSERT_NE(bw, nullptr);
    double bw_peak = 0.0;
    for (const obs::TimeSeries::Sample &s : bw->samples())
        bw_peak = std::max(bw_peak, s.value);
    EXPECT_GT(bw_peak, 0.0);
    EXPECT_LT(bw_peak, 1000.0);

    // Core busy/stall fractions are per-interval fractions in [0, 1].
    const obs::TimeSeries *busy = reg.series("sim.core.0.busy_frac");
    ASSERT_NE(busy, nullptr);
    for (const obs::TimeSeries::Sample &s : busy->samples()) {
        EXPECT_GE(s.value, 0.0);
        EXPECT_LE(s.value, 1.0 + 1e-9);
    }

    // The System is destroyed: gauges are frozen but still readable.
    EXPECT_NO_THROW({
        for (const auto &[name, g] : reg.gauges())
            (void)g.read();
    });
}

TEST(Sampler, DisarmStopsSampling)
{
    obs::MetricRegistry reg;
    obs::Sampler::Params params;
    params.cadence = 10 * ticksPerNs;
    obs::Sampler s(reg, params);
    s.sample(10 * ticksPerNs);
    EXPECT_EQ(s.taken(), 1u);
    s.disarm();
    s.sample(20 * ticksPerNs);
    EXPECT_EQ(s.taken(), 1u);
}

TEST(Sampler, RecordsItsOwnOverhead)
{
    // Every snapshot charges its wall-clock cost to the
    // obs.self.overhead_ns counter, so `--json` telemetry always shows
    // what observability itself cost.
    obs::MetricRegistry reg;
    obs::Sampler::Params params;
    params.cadence = 10 * ticksPerNs;
    obs::Sampler s(reg, params);
    s.sample(10 * ticksPerNs);
    s.sample(20 * ticksPerNs);
    ASSERT_EQ(s.taken(), 2u);
    EXPECT_EQ(reg.counters().count(obs::kSelfOverheadCounter), 1u);
    // Wall-clock valued: present and non-decreasing, no exact value.
    const uint64_t after_two =
        reg.counter(obs::kSelfOverheadCounter).value();
    s.sample(30 * ticksPerNs);
    EXPECT_GE(reg.counter(obs::kSelfOverheadCounter).value(), after_two);
}

TEST(Sampler, AttachTwiceIsRejected)
{
    platforms::Platform p = test::tinyPlatform();
    sim::SystemParams sp = p.sysParams(1, 1);
    // The registry must be declared before (and so outlive) the System:
    // the System's destructor freezes its gauges into it.
    obs::MetricRegistry reg;
    sim::System sys(sp, test::randomKernel(4, 4.0));
    sys.attachObservability(reg);
    EXPECT_DEATH(sys.attachObservability(reg), "already attached");
}
