/**
 * @file
 * Tests for the multi-phase thread model, the request tracer, the
 * latency percentiles and the DGEMM extension workload.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/sweep.hh"
#include "sim/system.hh"
#include "sim/tracer.hh"
#include "test_common.hh"
#include "workloads/workload.hh"

namespace lll::sim
{
namespace
{

SystemParams
tinyParams(int cores = 2)
{
    platforms::Platform p = test::tinyPlatform();
    SystemParams sp = p.sysParams(cores, 1);
    sp.seed = 5;
    return sp;
}

// --- phases ---------------------------------------------------------------

TEST(PhasedThreadTest, SinglePhaseMatchesPlainConstruction)
{
    KernelSpec k = test::randomKernel(8, 4.0);
    System plain(tinyParams(), k);
    System phased(tinyParams(), std::vector<PhaseSpec>{{k, 0}});
    RunResult a = test::runOk(plain, 5.0, 10.0);
    RunResult b = test::runOk(phased, 5.0, 10.0);
    EXPECT_EQ(a.opsIssued, b.opsIssued);
    EXPECT_EQ(a.memReadLines, b.memReadLines);
}

TEST(PhasedThreadTest, PhasesAlternate)
{
    KernelSpec fast = test::randomKernel(8, 2.0);
    fast.name = "fast";
    KernelSpec slow = test::randomKernel(2, 100.0);
    slow.name = "slow";
    System sys(tinyParams(1),
               std::vector<PhaseSpec>{{fast, 200}, {slow, 50}});
    test::runOk(sys, 5.0, 10.0);
    // After enough ops the thread must have cycled phases at least once.
    // (ops in 15 us >> 250.)
    ThreadContext &t = sys.thread(0, 0);
    EXPECT_GT(t.opsIssued(), 0u);
    // Run more and observe the phase index moving.
    std::set<size_t> seen;
    for (int i = 0; i < 40; ++i) {
        test::runOk(sys, 0.0, 2.0);
        seen.insert(t.currentPhase());
    }
    EXPECT_EQ(seen.size(), 2u);
}

TEST(PhasedThreadTest, MixedProgramBlendsBandwidth)
{
    KernelSpec heavy = test::randomKernel(8, 2.0);
    KernelSpec light = test::randomKernel(2, 300.0);
    System h(tinyParams(2), heavy);
    System l(tinyParams(2), light);
    System m(tinyParams(2),
             std::vector<PhaseSpec>{{heavy, 1000}, {light, 200}});
    double bw_h = test::runOk(h, 10.0, 20.0).totalGBs;
    double bw_l = test::runOk(l, 10.0, 20.0).totalGBs;
    double bw_m = test::runOk(m, 20.0, 60.0).totalGBs;
    EXPECT_GT(bw_m, bw_l);
    EXPECT_LT(bw_m, bw_h);
}

TEST(PhasedThreadDeathTest, EmptyPhasesPanics)
{
    EXPECT_DEATH(System(tinyParams(), std::vector<PhaseSpec>{}),
                 "phase");
}

// --- tracer ---------------------------------------------------------------

TEST(TracerTest, RecordsMemoryRequests)
{
    KernelSpec k = test::randomKernel(8, 4.0);
    System sys(tinyParams(), k);
    RequestTracer tracer(1024);
    sys.mem().setTracer(&tracer);
    RunResult r = test::runOk(sys, 5.0, 10.0);
    EXPECT_GT(tracer.total(), 100u);
    EXPECT_LE(tracer.size(), tracer.capacity());
    // Every recorded read carries a positive latency.
    for (const RequestTracer::Event &ev : tracer.events()) {
        if (ev.type != ReqType::Writeback) {
            EXPECT_GT(ev.latencyNs, 0.0);
        }
    }
    (void)r;
}

TEST(TracerTest, RingOverwritesOldest)
{
    RequestTracer tracer(4);
    for (uint64_t i = 0; i < 10; ++i)
        tracer.record(i, i, ReqType::DemandLoad, 0, 1.0);
    EXPECT_EQ(tracer.total(), 10u);
    EXPECT_EQ(tracer.size(), 4u);
    auto evs = tracer.events();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs.front().lineAddr, 6u);
    EXPECT_EQ(evs.back().lineAddr, 9u);
}

TEST(TracerTest, EventsInArrivalOrder)
{
    RequestTracer tracer(8);
    for (uint64_t i = 0; i < 6; ++i)
        tracer.record(i * 10, i, ReqType::DemandLoad, 0, 1.0);
    auto evs = tracer.events();
    for (size_t i = 1; i < evs.size(); ++i)
        EXPECT_GT(evs[i].when, evs[i - 1].when);
}

TEST(TracerTest, LocalitySeparatesRandomFromStreaming)
{
    RequestTracer rnd_tracer(4096), seq_tracer(4096);
    {
        System sys(tinyParams(2), test::randomKernel(8, 4.0,
                                                     1 << 20));
        sys.mem().setTracer(&rnd_tracer);
        test::runOk(sys, 5.0, 10.0);
    }
    {
        System sys(tinyParams(2), test::streamingKernel(4, 8, 4.0));
        sys.mem().setTracer(&seq_tracer);
        test::runOk(sys, 5.0, 10.0);
    }
    EXPECT_LT(rnd_tracer.localityScore(), 0.1);
    EXPECT_GT(seq_tracer.localityScore(), 0.6);
}

TEST(TracerTest, CsvHasHeaderAndRows)
{
    RequestTracer tracer(8);
    tracer.record(1000, 42, ReqType::HwPrefetch, 3, 99.5);
    std::string csv = tracer.toCsv();
    EXPECT_NE(csv.find("when_ns,line_addr,type,core,latency_ns"),
              std::string::npos);
    EXPECT_NE(csv.find("42,HwPrefetch,3,99.50"), std::string::npos);
}

TEST(TracerTest, ClearResets)
{
    RequestTracer tracer(8);
    tracer.record(1, 1, ReqType::DemandLoad, 0, 1.0);
    tracer.clear();
    EXPECT_EQ(tracer.total(), 0u);
    EXPECT_EQ(tracer.size(), 0u);
}

// --- latency percentiles ---------------------------------------------------

TEST(LatencyPercentileTest, OrderedAndNearMean)
{
    System sys(tinyParams(4), test::randomKernel(8, 2.0));
    RunResult r = test::runOk(sys, 10.0, 20.0);
    EXPECT_GT(r.p50MemLatencyNs, 0.0);
    EXPECT_LE(r.p50MemLatencyNs, r.p95MemLatencyNs);
    EXPECT_LE(r.p95MemLatencyNs, r.p99MemLatencyNs);
    // The mean sits between the median and the p99 for this skew.
    EXPECT_GT(r.p99MemLatencyNs, r.avgMemLatencyNs);
}

} // namespace
} // namespace lll::sim

// --- dgemm extension --------------------------------------------------------

namespace lll::workloads
{
namespace
{

TEST(DgemmTest, RegisteredAsExtension)
{
    // Not part of the paper's six...
    auto all = allWorkloads();
    for (const WorkloadPtr &w : all)
        EXPECT_NE(w->name(), "dgemm");
    // ...but reachable by name.
    WorkloadPtr d = findWorkload("dgemm").take();
    EXPECT_EQ(d->routine(), "dgemm_kernel");
    EXPECT_FALSE(d->randomDominated());
}

TEST(DgemmTest, TilingCollapsesTraffic)
{
    WorkloadPtr d = findWorkload("dgemm").take();
    platforms::Platform skl = platforms::findPlatform("skl").take();
    sim::KernelSpec base = d->spec(skl, {});
    sim::KernelSpec tiled = d->spec(skl, OptSet{Opt::Tiling});
    // The B panel shrinks to a resident block.
    EXPECT_LT(tiled.streams[1].footprintLines,
              base.streams[1].footprintLines / 16);
    EXPECT_GT(tiled.workPerOp, base.workPerOp * 2.0);
}

TEST(DgemmTest, UnrollJamAndVectCompose)
{
    WorkloadPtr d = findWorkload("dgemm").take();
    platforms::Platform knl = platforms::findPlatform("knl").take();
    OptSet t{Opt::Tiling};
    OptSet tj = t.with(Opt::UnrollJam);
    OptSet tjv = tj.with(Opt::Vectorize);
    sim::KernelSpec a = d->spec(knl, t);
    sim::KernelSpec b = d->spec(knl, tj);
    sim::KernelSpec c = d->spec(knl, tjv);
    EXPECT_GT(b.workPerOp, a.workPerOp);
    EXPECT_LT(c.computeCyclesPerOp, b.computeCyclesPerOp);
}

TEST(DgemmTest, WalkEndsComputeBound)
{
    // The §IV-G check on the tiny platform: after the full walk the
    // MSHRQ is far from full at modest bandwidth.
    WorkloadPtr d = findWorkload("dgemm").take();
    platforms::Platform p = platforms::findPlatform("skl").take();
    const xmem::LatencyProfile profile =
        lll::test::syntheticProfile("skl", p.peakGBs);
    core::SweepRunner::StageUnit tiled{p, d.get(), OptSet{Opt::Tiling},
                                       20.0, 40.0, 6};
    core::SweepRunner::StageUnit full = tiled;
    full.opts = OptSet{Opt::Tiling, Opt::UnrollJam, Opt::Vectorize};
    const core::StageMetrics m = lll::test::stageOk(full, profile);
    EXPECT_LT(m.analysis.nAvg, 0.7 * m.analysis.limitingMshrs);
    EXPECT_GT(m.throughput / lll::test::stageOk(tiled, profile).throughput,
              1.5);
}

} // namespace
} // namespace lll::workloads
