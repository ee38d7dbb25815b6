/**
 * @file
 * Tests for the platform definitions against paper Table III.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "platforms/platform.hh"

namespace lll::platforms
{
namespace
{

TEST(PlatformTest, SklMatchesTableIII)
{
    Platform p = skl();
    EXPECT_EQ(p.totalCores, 24);
    EXPECT_DOUBLE_EQ(p.freqGHz, 2.1);
    EXPECT_DOUBLE_EQ(p.peakGBs, 128.0);
    EXPECT_EQ(p.l1Mshrs, 10u);
    EXPECT_EQ(p.l2Mshrs, 16u);
    EXPECT_EQ(p.lineBytes, 64u);
    EXPECT_EQ(p.maxSmtWays, 2u);
    EXPECT_EQ(p.vendor, Vendor::Intel);
}

TEST(PlatformTest, KnlMatchesTableIII)
{
    Platform p = knl();
    EXPECT_EQ(p.totalCores, 64);   // paper uses 64 of the 68
    EXPECT_DOUBLE_EQ(p.freqGHz, 1.4);
    EXPECT_DOUBLE_EQ(p.peakGBs, 400.0);
    EXPECT_EQ(p.l1Mshrs, 12u);
    EXPECT_EQ(p.l2Mshrs, 32u);
    EXPECT_EQ(p.maxSmtWays, 4u);
    EXPECT_NEAR(p.peakGFlops, 2867.0, 1.0);   // paper Fig. 2
}

TEST(PlatformTest, A64fxMatchesTableIII)
{
    Platform p = a64fx();
    EXPECT_EQ(p.totalCores, 48);
    EXPECT_DOUBLE_EQ(p.freqGHz, 1.8);
    EXPECT_DOUBLE_EQ(p.peakGBs, 1024.0);
    EXPECT_EQ(p.l1Mshrs, 12u);
    EXPECT_EQ(p.l2Mshrs, 20u);
    EXPECT_EQ(p.lineBytes, 256u);
    EXPECT_EQ(p.maxSmtWays, 1u);   // no SMT
    EXPECT_EQ(p.vendor, Vendor::Fujitsu);
}

TEST(PlatformTest, AllPlatformsInPaperOrder)
{
    auto all = allPlatforms();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].name, "skl");
    EXPECT_EQ(all[1].name, "knl");
    EXPECT_EQ(all[2].name, "a64fx");
}

TEST(PlatformTest, FindPlatformFindsEach)
{
    EXPECT_EQ(findPlatform("skl").take().totalCores, 24);
    EXPECT_EQ(findPlatform("knl").take().totalCores, 64);
    EXPECT_EQ(findPlatform("a64fx").take().totalCores, 48);
}

TEST(PlatformTest, FindPlatformUnknownIsNotFound)
{
    util::Result<Platform> r = findPlatform("epyc");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::NotFound);
    EXPECT_EQ(r.status().message(),
              "unknown platform 'epyc' (expected skl, knl or a64fx)");
}

TEST(PlatformTest, LookupsReturnFreshEqualCopies)
{
    // The table is built once; a caller editing its copy must not
    // change what the next lookup returns.
    Platform first = findPlatform("knl").take();
    first.totalCores = 1;
    first.proto.l2.mshrs = 1;
    const Platform again = findPlatform("knl").take();
    EXPECT_EQ(again.totalCores, knl().totalCores);
    EXPECT_EQ(again.proto.l2.mshrs, knl().proto.l2.mshrs);
    EXPECT_EQ(allPlatforms()[1].totalCores, knl().totalCores);
}

TEST(PlatformTest, SysParamsAppliesCoresAndSmt)
{
    Platform p = knl();
    sim::SystemParams sp = p.sysParams(16, 4);
    EXPECT_EQ(sp.cores, 16);
    EXPECT_EQ(sp.threadsPerCore, 4u);
    EXPECT_DOUBLE_EQ(sp.freqGHz, 1.4);
}

TEST(PlatformDeathTest, SysParamsValidatesSmt)
{
    Platform p = a64fx();
    EXPECT_DEATH(p.sysParams(48, 2), "SMT");
}

TEST(PlatformDeathTest, SysParamsValidatesCores)
{
    Platform p = skl();
    EXPECT_DEATH(p.sysParams(25, 1), "out of range");
    EXPECT_DEATH(p.sysParams(0, 1), "out of range");
}

TEST(PlatformTest, MemoryIdleLatencyCalibration)
{
    // Idle latency = cache path + front + service + back, within the
    // neighbourhood the paper's tables imply.
    auto idle = [](const Platform &p) {
        const sim::SystemParams &s = p.proto;
        double path = ticksToNs(s.l1.accessLat + s.l2.accessLat +
                                (s.hasL3 ? s.l3.accessLat : 0));
        return path + s.mem.frontLatencyNs + s.mem.bankServiceNs +
               s.mem.backLatencyNs;
    };
    EXPECT_NEAR(idle(skl()), 82.0, 8.0);
    EXPECT_NEAR(idle(knl()), 168.0, 10.0);
    EXPECT_NEAR(idle(a64fx()), 141.0, 10.0);
}

TEST(PlatformTest, DerivedBankCountGivesPeakBandwidth)
{
    for (const Platform &p : allPlatforms()) {
        const sim::MemCtrl::Params &m = p.proto.mem;
        double banks = p.peakGBs * m.bankServiceNs / p.lineBytes;
        double peak = std::round(banks) * p.lineBytes / m.bankServiceNs;
        EXPECT_NEAR(peak, p.peakGBs, p.peakGBs * 0.02) << p.name;
    }
}

TEST(PlatformTest, VendorNames)
{
    EXPECT_STREQ(vendorName(Vendor::Intel), "Intel");
    EXPECT_STREQ(vendorName(Vendor::Amd), "AMD");
    EXPECT_STREQ(vendorName(Vendor::Cavium), "Cavium");
    EXPECT_STREQ(vendorName(Vendor::Fujitsu), "Fujitsu");
}

TEST(PlatformTest, SmtCapacityCurvesAreMonotone)
{
    for (const Platform &p : allPlatforms()) {
        double last = 0.0;
        for (unsigned k = 1; k <= p.maxSmtWays; ++k) {
            double c = p.proto.smtCapacity[k];
            if (c <= 0.0)
                c = last;
            EXPECT_GE(c, last) << p.name << " ways " << k;
            last = c;
        }
    }
}

} // namespace
} // namespace lll::platforms
