/**
 * @file
 * System-level tests: closed-loop equilibria, determinism, MSHR bounds,
 * SMT sharing, prefetcher effects, stats windows, and the absence of
 * request leaks across full runs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "platforms/platform.hh"
#include "sim/system.hh"
#include "test_common.hh"
#include "util/json.hh"
#include "workloads/workload.hh"

namespace lll::sim
{
namespace
{

SystemParams
tinyParams(int cores = 2, unsigned smt = 1)
{
    platforms::Platform p = test::tinyPlatform();
    SystemParams sp = p.sysParams(cores, smt);
    sp.seed = 99;
    return sp;
}

TEST(SystemTest, RunProducesTraffic)
{
    System sys(tinyParams(), test::randomKernel(8, 4.0));
    RunResult r = test::runOk(sys, 5.0, 10.0);
    EXPECT_GT(r.opsIssued, 100u);
    EXPECT_GT(r.totalGBs, 0.0);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GT(r.eventsProcessed, 100u);
    EXPECT_NEAR(r.measureSeconds, 10e-6, 1e-9);
}

TEST(SystemTest, DeterministicForSameSeed)
{
    System a(tinyParams(), test::randomKernel(8, 4.0));
    System b(tinyParams(), test::randomKernel(8, 4.0));
    RunResult ra = test::runOk(a, 5.0, 10.0);
    RunResult rb = test::runOk(b, 5.0, 10.0);
    EXPECT_EQ(ra.opsIssued, rb.opsIssued);
    EXPECT_EQ(ra.memReadLines, rb.memReadLines);
    EXPECT_DOUBLE_EQ(ra.avgL1MshrOccupancy, rb.avgL1MshrOccupancy);
}

TEST(SystemTest, DifferentSeedsDiffer)
{
    SystemParams sp1 = tinyParams();
    SystemParams sp2 = tinyParams();
    sp2.seed = 1234;
    System a(sp1, test::randomKernel(8, 4.0));
    System b(sp2, test::randomKernel(8, 4.0));
    EXPECT_NE(test::runOk(a, 5.0, 10.0).memReadLines,
              test::runOk(b, 5.0, 10.0).memReadLines);
}

TEST(SystemTest, OccupancyNeverExceedsMshrCapacity)
{
    SystemParams sp = tinyParams();
    System sys(sp, test::randomKernel(32, 1.0));
    RunResult r = test::runOk(sys, 5.0, 10.0);
    EXPECT_LE(r.maxL1MshrOccupancy, sp.l1.mshrs);
    EXPECT_LE(r.maxL2MshrOccupancy, sp.l2.mshrs);
    EXPECT_LE(r.avgL1MshrOccupancy, sp.l1.mshrs);
}

TEST(SystemTest, WindowBoundsOccupancyWhenSmall)
{
    // window=2 per thread, 1 thread: L1 occupancy can't exceed ~2 plus
    // store traffic (none here).
    System sys(tinyParams(1), test::randomKernel(2, 1.0));
    RunResult r = test::runOk(sys, 5.0, 10.0);
    EXPECT_LE(r.maxL1MshrOccupancy, 3.0);
}

TEST(SystemTest, BandwidthBoundedByPeak)
{
    SystemParams sp = tinyParams(4);
    System sys(sp, test::streamingKernel(4, 16, 0.5));
    RunResult r = test::runOk(sys, 10.0, 20.0);
    // Bank-count rounding can set the true service peak slightly above
    // the nominal figure; bound against the derived peak.
    double banks = std::round(sp.mem.peakGBs * sp.mem.bankServiceNs /
                              sp.lineBytes);
    double peak = banks * sp.lineBytes / sp.mem.bankServiceNs;
    EXPECT_LE(r.totalGBs, peak * 1.01);
}

TEST(SystemTest, RandomKernelIsDemandDominated)
{
    System sys(tinyParams(4), test::randomKernel(8, 4.0));
    RunResult r = test::runOk(sys, 5.0, 15.0);
    EXPECT_GT(r.demandFraction, 0.9);
    EXPECT_EQ(r.hwPrefIssued, 0u);
}

TEST(SystemTest, StreamingKernelEngagesPrefetcher)
{
    System sys(tinyParams(4), test::streamingKernel(4, 10, 4.0));
    RunResult r = test::runOk(sys, 10.0, 20.0);
    EXPECT_GT(r.hwPrefIssued, 100u);
    EXPECT_LT(r.demandFraction, 0.7);
    EXPECT_GT(r.hwPrefUseful, 0u);
}

TEST(SystemTest, MoreCoresMoreBandwidthUntilSaturation)
{
    System one(tinyParams(1), test::randomKernel(8, 4.0));
    System four(tinyParams(4), test::randomKernel(8, 4.0));
    double bw1 = test::runOk(one, 5.0, 15.0).totalGBs;
    double bw4 = test::runOk(four, 5.0, 15.0).totalGBs;
    EXPECT_GT(bw4, bw1 * 1.5);
}

TEST(SystemTest, SmtSharesL1Mshrs)
{
    // 2 threads x window 8 vs 10 L1 MSHRs: occupancy pegged near the
    // cap, never above.
    System sys(tinyParams(2, 2), test::randomKernel(8, 2.0));
    RunResult r = test::runOk(sys, 5.0, 15.0);
    EXPECT_LE(r.maxL1MshrOccupancy, 10.0);
    EXPECT_GT(r.avgL1MshrOccupancy, 6.0);
    EXPECT_GT(r.l1FullStalls, 0u);
}

TEST(SystemTest, SwPrefetchReachesMemoryTyped)
{
    KernelSpec k = test::randomKernel(8, 4.0);
    k.streams[0].swPrefetchable = true;
    k.swPrefetchL2 = true;
    k.swPrefetchDistance = 16;
    System sys(tinyParams(2), k);
    RunResult r = test::runOk(sys, 5.0, 15.0);
    EXPECT_GT(r.swPrefIssued, 50u);
    EXPECT_GT(r.memSwPrefetchLines, 50u);
}

TEST(SystemTest, SwPrefetchRaisesL2OccupancyAboveL1)
{
    KernelSpec base = test::randomKernel(8, 3.0);
    System a(tinyParams(4), base);
    RunResult ra = test::runOk(a, 5.0, 15.0);

    KernelSpec pref = base;
    pref.streams[0].swPrefetchable = true;
    pref.swPrefetchL2 = true;
    System b(tinyParams(4), pref);
    RunResult rb = test::runOk(b, 5.0, 15.0);

    // The paper's ISx mechanism: prefetch-to-L2 moves outstanding lines
    // from the L1 queue to the (larger) L2 queue.
    EXPECT_GT(rb.avgL2MshrOccupancy, ra.avgL2MshrOccupancy * 1.2);
    EXPECT_LT(rb.avgL1MshrOccupancy, ra.avgL1MshrOccupancy);
}

TEST(SystemTest, StoresGenerateWritebackTraffic)
{
    KernelSpec k = test::randomKernel(8, 4.0);
    k.streams[0].store = true;
    // Without a large LLC to absorb dirty evictions (as on KNL/A64FX),
    // store misses turn into memory writebacks; shrink the L2 so the
    // eviction steady state is reached within the short test window.
    SystemParams sp = tinyParams(2);
    sp.hasL3 = false;
    sp.l2.sets = 64;
    System sys(sp, k);
    RunResult r = test::runOk(sys, 10.0, 20.0);
    EXPECT_GT(r.memWriteLines, 100u);
    EXPECT_GT(r.writeGBs, 0.0);
}

TEST(SystemTest, RepeatedWindowsAreConsistent)
{
    System sys(tinyParams(2), test::randomKernel(8, 4.0));
    RunResult r1 = test::runOk(sys, 10.0, 10.0);
    RunResult r2 = test::runOk(sys, 0.0, 10.0);
    // Steady state: consecutive windows agree within a few percent.
    EXPECT_NEAR(r2.totalGBs, r1.totalGBs, r1.totalGBs * 0.1);
}

TEST(SystemTest, NoRequestLeakAccumulation)
{
    System sys(tinyParams(2), test::randomKernel(8, 4.0));
    test::runOk(sys, 5.0, 10.0);
    // Outstanding requests are bounded by in-flight state, not by run
    // length.
    int64_t after_one = sys.pool().outstanding();
    test::runOk(sys, 0.0, 10.0);
    EXPECT_LE(sys.pool().outstanding(), after_one + 200);
}

TEST(SystemTest, MicrostepWindowsDoNotLeakRequests)
{
    // The system_step bench shape: the skl 4-core system driven by many
    // tiny measurement windows.  Windows can cut a request's lifetime
    // anywhere, so the checked-out population must stay pinned to
    // in-flight capacity (MSHRs + thread windows), never creep with the
    // number of windows.
    KernelSpec spec;
    StreamDesc s;
    s.kind = StreamDesc::Kind::Random;
    s.footprintLines = 1 << 18;
    spec.streams.push_back(s);
    spec.window = 8;
    spec.computeCyclesPerOp = 4.0;

    System sys(platforms::skl().sysParams(4, 1), spec);
    test::runOk(sys, 2.0, 2.0); // warm start
    const int64_t after_warm = sys.pool().outstanding();
    EXPECT_GE(after_warm, 0);
    for (int i = 0; i < 50; ++i)
        test::runOk(sys, 0.0001, 1.0);
    EXPECT_GE(sys.pool().outstanding(), 0);
    EXPECT_LE(sys.pool().outstanding(), after_warm + 200);
}

TEST(SystemTest, ThroughputScalesWithWorkPerOp)
{
    KernelSpec k1 = test::randomKernel(8, 4.0);
    KernelSpec k2 = k1;
    k2.workPerOp = 2.0;
    System a(tinyParams(2), k1);
    System b(tinyParams(2), k2);
    double t1 = test::runOk(a, 5.0, 15.0).throughput;
    double t2 = test::runOk(b, 5.0, 15.0).throughput;
    EXPECT_NEAR(t2 / t1, 2.0, 0.1);
}

TEST(SystemTest, ComputeBoundKernelHasLowOccupancy)
{
    System sys(tinyParams(4), test::randomKernel(2, 400.0));
    RunResult r = test::runOk(sys, 20.0, 40.0);
    EXPECT_LT(r.avgL1MshrOccupancy, 1.0);
    EXPECT_LT(r.memUtilization, 0.3);
}

TEST(SystemTest, TrueLatencyNearIdleWhenUnloaded)
{
    System sys(tinyParams(1), test::randomKernel(1, 200.0));
    RunResult r = test::runOk(sys, 10.0, 20.0);
    // Single in-flight request: the controller sees no queueing.
    MemCtrl::Params mp = test::tinyPlatform().proto.mem;
    double idle = mp.frontLatencyNs + mp.bankServiceNs + mp.backLatencyNs;
    EXPECT_NEAR(r.avgMemLatencyNs, idle, 4.0);
}

// ---------------------------------------------------------------------
// Exact simulator golden: every RunResult field of a handful of short
// stages, printed with 17 significant digits.  A host-side speed-up of
// the simulator (tag store, event queue, allocation) must leave every
// simulated number untouched, so this file changes only with a
// deliberate change to the model.

/** Every RunResult field as "name=value", %.17g for doubles. */
std::string
goldenLine(const std::string &stage, const RunResult &r)
{
    std::string line = stage;
    auto add = [&](const char *name, double v) {
        line += ' ';
        line += name;
        line += '=';
        util::appendG17(line, v);
    };
    auto addU = [&](const char *name, uint64_t v) {
        line += ' ';
        line += name;
        line += '=';
        line += std::to_string(v);
    };
    add("measure_s", r.measureSeconds);
    add("work", r.workDone);
    add("throughput", r.throughput);
    addU("ops", r.opsIssued);
    add("read_gbs", r.readGBs);
    add("write_gbs", r.writeGBs);
    add("total_gbs", r.totalGBs);
    add("demand_frac", r.demandFraction);
    add("mem_util", r.memUtilization);
    add("lat_avg_ns", r.avgMemLatencyNs);
    add("lat_p50_ns", r.p50MemLatencyNs);
    add("lat_p95_ns", r.p95MemLatencyNs);
    add("lat_p99_ns", r.p99MemLatencyNs);
    add("mem_outstanding", r.avgMemOutstanding);
    add("l1_occ_avg", r.avgL1MshrOccupancy);
    add("l2_occ_avg", r.avgL2MshrOccupancy);
    add("l1_occ_max", r.maxL1MshrOccupancy);
    add("l2_occ_max", r.maxL2MshrOccupancy);
    addU("l1_full", r.l1FullStalls);
    addU("l2_full", r.l2FullStalls);
    addU("l1_miss", r.l1DemandMisses);
    addU("l1_hit", r.l1DemandHits);
    addU("l2_miss", r.l2DemandMisses);
    addU("l2_hit", r.l2DemandHits);
    addU("hw_pf", r.hwPrefIssued);
    addU("hw_pf_useful", r.hwPrefUseful);
    addU("sw_pf", r.swPrefIssued);
    addU("l2_pf_dropped", r.l2PrefetchDropped);
    addU("mem_read", r.memReadLines);
    addU("mem_write", r.memWriteLines);
    addU("mem_hw_pf", r.memHwPrefetchLines);
    addU("mem_sw_pf", r.memSwPrefetchLines);
    addU("events", r.eventsProcessed);
    return line + '\n';
}

/** One X-Mem operating point's load kernel (xmem_harness.cc's shape). */
KernelSpec
xmemPointSpec(const platforms::Platform &p, bool streaming,
              unsigned window, double delay_cycles)
{
    KernelSpec spec;
    spec.name = "xmem-load";
    for (int i = 0; i < (streaming ? 4 : 1); ++i) {
        StreamDesc s;
        s.kind = streaming ? StreamDesc::Kind::Sequential
                           : StreamDesc::Kind::Random;
        s.footprintLines =
            (streaming ? (1ULL << 20) : (1ULL << 21)) * 64 / p.lineBytes;
        spec.streams.push_back(s);
    }
    spec.window = window;
    spec.computeCyclesPerOp = delay_cycles;
    return spec;
}

/** A workload stage the way Experiment::stage builds it. */
std::string
workloadStage(const char *label, const platforms::Platform &p,
              const char *workload, const workloads::OptSet &opts,
              int cores, uint64_t tie_seed = 0)
{
    auto w = workloads::findWorkload(workload);
    EXPECT_TRUE(w.ok());
    SystemParams sp = p.sysParams(cores, opts.smtWays());
    sp.tieBreakSeed = tie_seed;
    System sys(sp, (*w)->spec(p, opts));
    return goldenLine(label, test::runOk(sys, 10.0, 30.0));
}

std::string
simStagesReport()
{
    using workloads::Opt;
    const platforms::Platform skl = platforms::skl();
    const platforms::Platform knl = platforms::knl();
    const platforms::Platform a64fx = platforms::a64fx();
    std::string out;
    out += workloadStage("skl/isx/base", skl, "isx", {}, 4);
    out += workloadStage("knl/hpcg/base", knl, "hpcg", {}, 4);
    out += workloadStage("a64fx/snap/base", a64fx, "snap", {}, 4);
    out += workloadStage("skl/isx/2-ht", skl, "isx", {Opt::Smt2}, 2);
    out += workloadStage("skl/minighost/tie-seed", skl, "minighost", {}, 4,
                         0x9e3779b97f4a7c15ULL);
    out += workloadStage("knl/isx/l2-pref", knl, "isx",
                         {Opt::SwPrefetchL2}, 4);
    {
        // A store kernel on shrunken caches, so that dirty lines are
        // written back all the way to memory inside the window.
        auto w = workloads::findWorkload("isx");
        EXPECT_TRUE(w.ok());
        SystemParams sp = skl.sysParams(4, 1);
        sp.l1.sets = 8;
        sp.l2.sets = 16;
        sp.l3.sets = 64;
        System sys(sp, (*w)->spec(skl, {}));
        out += goldenLine("skl/isx/small-caches", test::runOk(sys, 10.0, 30.0));
    }
    {
        SystemParams sp = skl.sysParams(skl.totalCores, 1);
        System sys(sp, xmemPointSpec(skl, false, 2, 50.0));
        out += goldenLine("skl/xmem/random-w2", test::runOk(sys, 5.0, 10.0));
    }
    {
        SystemParams sp = knl.sysParams(16, 1);
        System sys(sp, xmemPointSpec(knl, true, 8, 8.0));
        out += goldenLine("knl/xmem/stream-w8", test::runOk(sys, 5.0, 10.0));
    }
    return out;
}

TEST(SystemGoldenTest, StageStatisticsMatchTheGoldenExactly)
{
    const std::string path =
        std::string(LLL_TEST_GOLDEN_DIR) + "/sim_stages.ref";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::ostringstream want;
    want << in.rdbuf();
    const std::string got = simStagesReport();
    if (got != want.str()) {
        // Leave the fresh report in the working directory for diffing.
        std::ofstream("sim_stages.actual", std::ios::binary) << got;
    }
    EXPECT_EQ(got, want.str())
        << "simulated stage statistics moved; fresh report written to "
           "sim_stages.actual in the test's working directory";
}

TEST(SystemTest, ZeroMeasureIsRefused)
{
    System sys(tinyParams(), test::randomKernel(4, 4.0));
    util::Result<RunResult> r = sys.runChecked(1.0, 0.0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::InvalidArgument);
    EXPECT_NE(r.status().message().find("positive"), std::string::npos);
}

} // namespace
} // namespace lll::sim
