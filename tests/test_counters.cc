/**
 * @file
 * Tests for the counters layer: the Table I vendor matrix, the
 * portability property, CounterBank reads and RoutineProfiler math.
 */

#include <gtest/gtest.h>

#include "counters/counter_bank.hh"
#include "counters/vendor_matrix.hh"
#include "platforms/platform.hh"

namespace lll::counters
{
namespace
{

using platforms::Vendor;

sim::RunResult
sampleRun()
{
    sim::RunResult r;
    r.measureSeconds = 50e-6;
    r.memReadLines = 100000;
    r.memWriteLines = 20000;
    r.memHwPrefetchLines = 60000;
    r.memSwPrefetchLines = 5000;
    r.l1DemandHits = 400000;
    r.l1DemandMisses = 120000;
    r.l2DemandMisses = 50000;
    r.l1FullStalls = 777;
    r.l2FullStalls = 33;
    r.avgMemLatencyNs = 160.0;
    return r;
}

TEST(VendorMatrixTest, TableIRows)
{
    // Paper Table I: L1-MSHRQ-full stalls Intel/AMD yes, Cavium/Fujitsu
    // no; L2-MSHRQ-full stalls nobody; memory latency Intel/AMD limited.
    EXPECT_EQ(visibility(Vendor::Intel, EventKind::L1MshrFullStalls),
              Visibility::Full);
    EXPECT_EQ(visibility(Vendor::Amd, EventKind::L1MshrFullStalls),
              Visibility::Full);
    EXPECT_EQ(visibility(Vendor::Cavium, EventKind::L1MshrFullStalls),
              Visibility::None);
    EXPECT_EQ(visibility(Vendor::Fujitsu, EventKind::L1MshrFullStalls),
              Visibility::None);

    for (Vendor v : {Vendor::Intel, Vendor::Amd, Vendor::Cavium,
                     Vendor::Fujitsu}) {
        EXPECT_EQ(visibility(v, EventKind::L2MshrFullStalls),
                  Visibility::None);
    }

    EXPECT_EQ(visibility(Vendor::Intel, EventKind::LoadLatencyAbove512),
              Visibility::Limited);
    EXPECT_EQ(visibility(Vendor::Fujitsu, EventKind::LoadLatencyAbove512),
              Visibility::None);
}

TEST(VendorMatrixTest, PortableEventsVisibleEverywhere)
{
    // The paper's portability claim, enforced by construction.
    for (Vendor v : {Vendor::Intel, Vendor::Amd, Vendor::Cavium,
                     Vendor::Fujitsu}) {
        for (EventKind e : {EventKind::Cycles, EventKind::MemReadLines,
                            EventKind::MemWriteLines}) {
            EXPECT_TRUE(isPortable(e));
            EXPECT_EQ(visibility(v, e), Visibility::Full);
        }
    }
}

TEST(VendorMatrixTest, NonPortableEventsAreMarked)
{
    EXPECT_FALSE(isPortable(EventKind::L1MshrFullStalls));
    EXPECT_FALSE(isPortable(EventKind::LoadLatencyAbove512));
    EXPECT_FALSE(isPortable(EventKind::HwPrefetchMemLines));
}

TEST(VendorMatrixTest, SummariesCoverFourVendors)
{
    auto rows = vendorSummaries();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].vendor, Vendor::Intel);
    EXPECT_EQ(rows[2].stallBreakdown, Visibility::VeryLimited); // Cavium
    for (const VendorSummary &s : rows)
        EXPECT_EQ(s.memoryTraffic, Visibility::Full);
}

TEST(VendorMatrixTest, EventNames)
{
    EXPECT_STREQ(eventName(EventKind::MemReadLines), "mem_read_lines");
    EXPECT_STREQ(eventName(EventKind::L2MshrFullStalls),
                 "l2_mshrq_full_stalls");
}

TEST(CounterBankTest, ReadsPortableEvents)
{
    CounterBank bank(sampleRun(), Vendor::Fujitsu, 1.8);
    EXPECT_EQ(bank.read(EventKind::MemReadLines), 100000u);
    EXPECT_EQ(bank.read(EventKind::MemWriteLines), 20000u);
    EXPECT_EQ(bank.read(EventKind::Cycles),
              static_cast<uint64_t>(50e-6 * 1.8e9));
}

TEST(CounterBankTest, HiddenEventReturnsNullopt)
{
    CounterBank bank(sampleRun(), Vendor::Fujitsu, 1.8);
    EXPECT_FALSE(bank.read(EventKind::L1MshrFullStalls).has_value());
    EXPECT_FALSE(bank.read(EventKind::L2MshrFullStalls).has_value());
}

TEST(CounterBankTest, IntelSeesMshrStalls)
{
    CounterBank bank(sampleRun(), Vendor::Intel, 2.1);
    EXPECT_EQ(bank.read(EventKind::L1MshrFullStalls), 777u);
}

TEST(RoutineProfilerTest, BandwidthFromPortableCounters)
{
    platforms::Platform p = platforms::skl();
    RoutineProfiler profiler(p);
    RoutineProfile prof = profiler.profile(sampleRun(), "kernel_x");
    EXPECT_EQ(prof.routine, "kernel_x");
    // 100000 * 64B / 50us = 128 GB/s reads; writes 25.6.
    EXPECT_NEAR(prof.readGBs, 128.0, 0.01);
    EXPECT_NEAR(prof.writeGBs, 25.6, 0.01);
    EXPECT_NEAR(prof.totalGBs, 153.6, 0.01);
}

TEST(RoutineProfilerTest, DemandFractionWhenCountersExist)
{
    platforms::Platform p = platforms::skl();   // Intel: limited = exposed
    RoutineProfiler profiler(p);
    RoutineProfile prof = profiler.profile(sampleRun(), "k");
    ASSERT_TRUE(prof.demandFractionKnown);
    // (100000 - 65000) / 100000
    EXPECT_NEAR(prof.demandFraction, 0.35, 0.001);
}

TEST(RoutineProfilerTest, LineSizeMatters)
{
    platforms::Platform p = platforms::a64fx();   // 256B lines
    RoutineProfiler profiler(p);
    RoutineProfile prof = profiler.profile(sampleRun(), "k");
    EXPECT_NEAR(prof.readGBs, 512.0, 0.1);
}

} // namespace
} // namespace lll::counters
