/**
 * @file
 * Tests for the roofline model with MSHR-derived ceilings (paper Fig 2).
 */

#include <gtest/gtest.h>

#include "core/roofline.hh"
#include "test_common.hh"

namespace lll::core
{
namespace
{

class RooflineTest : public ::testing::Test
{
  protected:
    RooflineTest()
        : plat_(test::tinyPlatform()),
          roof_(plat_, test::syntheticProfile())
    {
    }

    platforms::Platform plat_;
    Roofline roof_;
};

TEST_F(RooflineTest, ClassicRoofMinOfComputeAndBandwidth)
{
    // Low intensity: bandwidth slope.
    EXPECT_DOUBLE_EQ(roof_.attainableGFlops(1.0), 24.0);
    // High intensity: flat compute roof.
    EXPECT_DOUBLE_EQ(roof_.attainableGFlops(1000.0), plat_.peakGFlops);
    // Non-decreasing in intensity across the ridge.
    double prev = 0.0;
    for (double intensity = 0.0625; intensity <= 1024.0; intensity *= 2) {
        double at = roof_.attainableGFlops(intensity);
        EXPECT_GE(at, prev) << intensity;
        prev = at;
    }
}

TEST_F(RooflineTest, RidgeIntensity)
{
    EXPECT_DOUBLE_EQ(roof_.ridgeIntensity(),
                     plat_.peakGFlops / plat_.peakGBs);
}

TEST_F(RooflineTest, MshrCeilingBelowPeakForSmallQueues)
{
    double l1 = roof_.mshrCeilingGBs(MshrLevel::L1, plat_.totalCores);
    EXPECT_GT(l1, 0.0);
    EXPECT_LE(l1, plat_.peakGBs);
}

TEST_F(RooflineTest, CeilingScalesWithMshrsUntilPeak)
{
    int cores = plat_.totalCores;
    double small = roof_.mshrCeilingGBs(2, cores);
    double large = roof_.mshrCeilingGBs(10, cores);
    EXPECT_LT(small, large);
    double huge = roof_.mshrCeilingGBs(10000, cores);
    EXPECT_DOUBLE_EQ(huge, plat_.peakGBs);   // clamped to the roof
}

TEST_F(RooflineTest, CeilingFixedPointSelfConsistent)
{
    int cores = plat_.totalCores;
    double bw = roof_.mshrCeilingGBs(4, cores);
    if (bw < plat_.peakGBs) {
        xmem::LatencyProfile prof = test::syntheticProfile();
        double implied = 4.0 * cores * plat_.lineBytes /
                         prof.latencyAt(bw);
        EXPECT_NEAR(bw, implied, bw * 0.02);
    }
}

TEST_F(RooflineTest, CeilingCapsAttainable)
{
    double ceiling = roof_.mshrCeilingGBs(2, plat_.totalCores);
    double at = roof_.attainableGFlops(1.0, ceiling);
    EXPECT_DOUBLE_EQ(at, ceiling);
    EXPECT_LT(at, roof_.attainableGFlops(1.0));
    // The L1-capped roof sits under the L2-capped roof, which sits
    // under the classic roof, at every intensity.
    const int cores = plat_.totalCores;
    const double l1 = roof_.mshrCeilingGBs(MshrLevel::L1, cores);
    const double l2 = roof_.mshrCeilingGBs(MshrLevel::L2, cores);
    for (double intensity = 0.0625; intensity <= 1024.0; intensity *= 2) {
        double classic = roof_.attainableGFlops(intensity);
        EXPECT_LE(roof_.attainableGFlops(intensity, l1),
                  roof_.attainableGFlops(intensity, l2))
            << intensity;
        EXPECT_LE(roof_.attainableGFlops(intensity, l2), classic)
            << intensity;
    }
}

TEST(RooflineKnlTest, L1CeilingReproducesPaper256)
{
    // The paper's Fig. 2 second roofline: 64 cores x 12 L1 MSHRs at
    // ~190 ns loaded latency -> ~256 GB/s.  Build a KNL-shaped profile.
    platforms::Platform knl = platforms::knl();
    std::vector<xmem::LatencyProfile::Point> pts = {
        {20.0, 170.0},  {100.0, 175.0}, {200.0, 185.0},
        {250.0, 195.0}, {344.0, 238.0}, {370.0, 300.0}};
    xmem::LatencyProfile prof("knl", 400.0, pts);
    Roofline roof(knl, prof);
    double l1 = roof.mshrCeilingGBs(MshrLevel::L1, 64);
    EXPECT_NEAR(l1, 256.0, 15.0);
    // And the L2 queue clears the way toward the 400 GB/s roof.
    double l2 = roof.mshrCeilingGBs(MshrLevel::L2, 64);
    EXPECT_GT(l2, 380.0);
}

TEST(RooflineDeathTest, BadQueriesPanic)
{
    platforms::Platform p = test::tinyPlatform();
    Roofline roof(p, test::syntheticProfile());
    EXPECT_DEATH(roof.attainableGFlops(0.0), "intensity");
    EXPECT_DEATH(roof.mshrCeilingGBs(0u, 4), "MSHR ceiling");
}

} // namespace
} // namespace lll::core
