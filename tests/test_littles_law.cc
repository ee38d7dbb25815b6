/**
 * @file
 * Tests for the Little's-law arithmetic, plus the library's strongest
 * property test: the n_avg derived the paper's way (bandwidth × loaded
 * latency / line size) matches the simulator's ground-truth average
 * outstanding memory requests, across workload shapes — i.e., Little's
 * law actually holds in the simulated memory system.
 */

#include <gtest/gtest.h>

#include "core/littles_law.hh"
#include "sim/system.hh"
#include "test_common.hh"

namespace lll::core
{
namespace
{

TEST(LittlesLawTest, Equation2Units)
{
    // 106.9 GB/s at 145 ns and 64B lines: the paper's SKL ISx numbers.
    EXPECT_NEAR(littlesLaw(106.9, 145.0, 64), 242.2, 0.2);
    EXPECT_NEAR(mlpPerCore(106.9, 145.0, 64, 24), 10.09, 0.01);
}

TEST(LittlesLawTest, PaperTableRowsRecompute)
{
    // KNL ISx base: 233 GB/s, 180 ns, 64 cores -> 10.23.
    EXPECT_NEAR(mlpPerCore(233.0, 180.0, 64, 64), 10.24, 0.03);
    // A64FX ISx base: 649 GB/s, 188 ns, 256B lines, 48 cores -> 9.92.
    EXPECT_NEAR(mlpPerCore(649.0, 188.0, 256, 48), 9.93, 0.03);
    // KNL most-optimized ISx: 344 GB/s at 238 ns -> 20.
    EXPECT_NEAR(mlpPerCore(344.0, 238.0, 64, 64), 20.0, 0.05);
}

TEST(LittlesLawTest, Equation1MatchesEquation2)
{
    // R/T * lat == BW*lat/cls when BW = R*cls/T.
    double requests = 1e6;
    double seconds = 1e-3;
    double lat_ns = 150.0;
    double cls = 64.0;
    double bw_gbs = requests * cls / seconds * 1e-9;
    EXPECT_NEAR(littlesLawFromRate(requests, seconds, lat_ns),
                littlesLaw(bw_gbs, lat_ns, 64), 1e-9);
}

TEST(LittlesLawTest, ZeroBandwidthZeroMlp)
{
    EXPECT_DOUBLE_EQ(littlesLaw(0.0, 200.0, 64), 0.0);
}

TEST(LittlesLawDeathTest, BadArgsPanic)
{
    EXPECT_DEATH(littlesLaw(-1.0, 10.0, 64), "bad arguments");
    EXPECT_DEATH(mlpPerCore(10.0, 10.0, 64, 0), "no cores");
}

// --- the self-consistency property --------------------------------------

struct LawCase
{
    const char *name;
    unsigned window;
    double compute;
    bool streaming;
    int cores;
    unsigned smt;
};

class LittlesLawProperty : public ::testing::TestWithParam<LawCase>
{
};

TEST_P(LittlesLawProperty, DerivedMlpMatchesTrueOutstanding)
{
    const LawCase &c = GetParam();
    sim::KernelSpec spec = c.streaming
                               ? test::streamingKernel(4, c.window,
                                                       c.compute)
                               : test::randomKernel(c.window, c.compute);
    platforms::Platform plat = test::tinyPlatform();
    sim::SystemParams sp = plat.sysParams(c.cores, c.smt);
    sim::System sys(sp, spec);
    sim::RunResult r = test::runOk(sys, 15.0, 40.0);

    // Derived the paper's way, but with the *true* average latency the
    // memory requests saw (isolating Little's law itself from profile
    // lookup error).
    double derived = littlesLaw(r.readGBs, r.avgMemLatencyNs,
                                plat.lineBytes);
    // Ground truth: time-integrated outstanding requests at the
    // controller (front+back path excluded => compare loosely).
    double truth = r.avgMemOutstanding;
    ASSERT_GT(truth, 0.0);
    EXPECT_NEAR(derived / truth, 1.0, 0.15)
        << c.name << ": derived " << derived << " truth " << truth;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LittlesLawProperty,
    ::testing::Values(
        LawCase{"random_latency_bound", 8, 2.0, false, 4, 1},
        LawCase{"random_compute_bound", 4, 60.0, false, 4, 1},
        LawCase{"random_single_core", 8, 4.0, false, 1, 1},
        LawCase{"streaming", 8, 4.0, true, 4, 1},
        LawCase{"streaming_light", 4, 24.0, true, 2, 1},
        LawCase{"random_smt", 6, 4.0, false, 2, 2}),
    [](const ::testing::TestParamInfo<LawCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace lll::core
