/**
 * @file
 * Property-style parameterized sweeps over the simulator's invariants:
 * loaded-latency monotonicity, closed-loop bandwidth monotonicity, MSHR
 * conservation, cache geometry independence, prefetcher coverage vs
 * table size, and op-stream weight conservation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/system.hh"
#include "test_common.hh"

namespace lll::sim
{
namespace
{

SystemParams
tinyParams(int cores, unsigned smt = 1)
{
    platforms::Platform p = test::tinyPlatform();
    SystemParams sp = p.sysParams(cores, smt);
    sp.seed = 31;
    return sp;
}

// --- loaded latency rises monotonically with injected load ---------------

class LatencyMonotone : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LatencyMonotone, MoreConcurrencyNeverLowersLatency)
{
    unsigned window = GetParam();
    System lo(tinyParams(4), test::randomKernel(window, 4.0));
    System hi(tinyParams(4), test::randomKernel(window + 4, 4.0));
    double lat_lo = test::runOk(lo, 10.0, 20.0).avgMemLatencyNs;
    double lat_hi = test::runOk(hi, 10.0, 20.0).avgMemLatencyNs;
    EXPECT_GE(lat_hi, lat_lo * 0.97);   // small noise allowance
}

INSTANTIATE_TEST_SUITE_P(Windows, LatencyMonotone,
                         ::testing::Values(1u, 2u, 4u, 8u));

// --- closed-loop bandwidth is monotone in exposed MLP ---------------------

TEST(ClosedLoopProperty, BandwidthMonotoneInWindow)
{
    double last = 0.0;
    for (unsigned window : {1u, 2u, 4u, 8u}) {
        System sys(tinyParams(2), test::randomKernel(window, 4.0));
        double bw = test::runOk(sys, 10.0, 20.0).totalGBs;
        EXPECT_GE(bw, last * 0.97) << "window " << window;
        last = bw;
    }
}

TEST(ClosedLoopProperty, BandwidthMonotoneDecreasingInComputeGap)
{
    double last = 1e18;
    for (double gap : {1.0, 8.0, 32.0, 128.0}) {
        System sys(tinyParams(2), test::randomKernel(6, gap));
        double bw = test::runOk(sys, 10.0, 20.0).totalGBs;
        EXPECT_LE(bw, last * 1.03) << "gap " << gap;
        last = bw;
    }
}

// --- MSHR conservation: queues drain when the load stops ------------------

TEST(MshrConservation, QueuesDrainAfterRun)
{
    SystemParams sp = tinyParams(2);
    System sys(sp, test::randomKernel(8, 4.0));
    test::runOk(sys, 5.0, 10.0);
    // Let everything in flight complete: no new work is created beyond
    // what threads keep injecting, so instead check the invariant that
    // occupancy never exceeds capacity and the pool balance stays
    // bounded by plausible in-flight state.
    EXPECT_LE(sys.l1(0).mshrs().used(), sp.l1.mshrs);
    EXPECT_LE(sys.l2(0).mshrs().used(), sp.l2.mshrs);
    EXPECT_LT(sys.pool().outstanding(), 2000);
}

// --- cache geometry: hit behaviour independent of shape for small sets ----

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, ResidentSetBehaviour)
{
    auto [sets, ways] = GetParam();
    EventQueue eq;
    RequestPool pool;
    Cache::Params cp;
    cp.sets = sets;
    cp.ways = ways;
    cp.mshrs = 0;
    Cache c(cp, eq, pool);
    MemCtrl::Params mp;
    MemCtrl mem(mp, eq, pool);
    c.setDownstream(&mem);

    // Install exactly capacity lines spread across sets; all resident.
    const uint64_t cap = static_cast<uint64_t>(sets) * ways;
    for (uint64_t i = 0; i < cap; ++i) {
        MemRequest *wb = pool.alloc();
        wb->lineAddr = i;
        wb->type = ReqType::Writeback;
        c.tryAccess(wb);
    }
    for (uint64_t i = 0; i < cap; ++i)
        EXPECT_TRUE(c.isResident(i)) << sets << "x" << ways << " @" << i;
    // One more line per set evicts exactly one per set.
    for (uint64_t i = cap; i < cap + sets; ++i) {
        MemRequest *wb = pool.alloc();
        wb->lineAddr = i;
        wb->type = ReqType::Writeback;
        c.tryAccess(wb);
    }
    uint64_t still = 0;
    for (uint64_t i = 0; i < cap; ++i)
        still += c.isResident(i);
    EXPECT_EQ(still, cap - sets);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometry,
    ::testing::Values(std::make_pair(4u, 2u), std::make_pair(16u, 4u),
                      std::make_pair(64u, 8u), std::make_pair(8u, 16u)));

// --- prefetcher coverage is monotone in table size -------------------------

class PrefetcherCoverage : public ::testing::TestWithParam<int>
{
};

TEST_P(PrefetcherCoverage, MoreStreamsNeedBiggerTables)
{
    const int nstreams = GetParam();
    double last_demand_frac = 1.1;
    for (unsigned table : {2u, 8u, 32u}) {
        SystemParams sp = tinyParams(1);
        sp.pf.tableSize = table;
        System sys(sp, test::streamingKernel(nstreams, 10, 4.0));
        RunResult r = test::runOk(sys, 10.0, 20.0);
        // Bigger tables never reduce coverage.
        EXPECT_LE(r.demandFraction, last_demand_frac + 0.05)
            << nstreams << " streams, table " << table;
        last_demand_frac = r.demandFraction;
    }
    EXPECT_LT(last_demand_frac, 0.6);   // 32 entries cover everything
}

INSTANTIATE_TEST_SUITE_P(StreamCounts, PrefetcherCoverage,
                         ::testing::Values(2, 4, 8));

// --- op-stream weight conservation across arbitrary mixes ------------------

class WeightMix : public ::testing::TestWithParam<std::vector<double>>
{
};

TEST_P(WeightMix, ObservedSharesMatchWeights)
{
    const std::vector<double> &weights = GetParam();
    KernelSpec k;
    for (double w : weights) {
        StreamDesc s;
        s.kind = StreamDesc::Kind::Sequential;
        s.footprintLines = 1 << 16;
        s.weight = w;
        k.streams.push_back(s);
    }
    OpStream ops(k, 1, 1);
    std::vector<unsigned> counts(weights.size(), 0);
    const uint64_t n = 6400;
    for (uint64_t i = 0; i < n; ++i)
        ++counts[ops.at(i).streamIdx];
    double total_w = 0.0;
    for (double w : weights)
        total_w += w;
    for (size_t s = 0; s < weights.size(); ++s) {
        double expect = weights[s] / total_w;
        double got = static_cast<double>(counts[s]) / n;
        EXPECT_NEAR(got, expect, 0.03) << "stream " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, WeightMix,
    ::testing::Values(std::vector<double>{1.0, 1.0},
                      std::vector<double>{3.0, 1.0},
                      std::vector<double>{0.7, 0.2, 0.1},
                      std::vector<double>{1.0, 1.0, 1.0, 1.0, 1.0},
                      std::vector<double>{5.0, 1.0, 1.0, 0.5}));

// --- SMT sharing: aggregate ops never fall when adding threads -------------

TEST(SmtProperty, AggregateThroughputMonotoneForComputeBound)
{
    double last = 0.0;
    for (unsigned smt : {1u, 2u}) {
        System sys(tinyParams(2, smt), test::randomKernel(2, 200.0));
        double thru = test::runOk(sys, 10.0, 30.0).throughput;
        EXPECT_GE(thru, last * 0.98) << smt << " ways";
        last = thru;
    }
}

// --- determinism across phased construction -------------------------------

TEST(PhaseDeterminism, SameSeedSameMixedResult)
{
    auto build = [] {
        std::vector<PhaseSpec> phases;
        phases.push_back({test::randomKernel(6, 4.0), 500});
        phases.push_back({test::streamingKernel(3, 8, 8.0), 300});
        return phases;
    };
    System a(tinyParams(2), build());
    System b(tinyParams(2), build());
    RunResult ra = test::runOk(a, 10.0, 20.0);
    RunResult rb = test::runOk(b, 10.0, 20.0);
    EXPECT_EQ(ra.opsIssued, rb.opsIssued);
    EXPECT_EQ(ra.memReadLines, rb.memReadLines);
}

} // namespace
} // namespace lll::sim
