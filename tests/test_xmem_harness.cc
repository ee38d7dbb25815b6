/**
 * @file
 * Tests for the X-Mem-style characterization harness on a small
 * platform: the sweep must produce a monotone curve spanning near-idle
 * to near-saturation, be the same at any jobs count, fail (not die)
 * when a point wedges, and the cache round-trip must work.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "test_common.hh"
#include "xmem/xmem_harness.hh"

namespace lll::xmem
{
namespace
{

XMemHarness::Params
fastParams()
{
    XMemHarness::Params p;
    p.warmupUs = 5.0;
    p.measureUs = 10.0;
    p.windows = {1, 4, 8, 12};
    p.delays = {256, 32};
    return p;
}

class XmemTest : public ::testing::Test
{
  protected:
    /** The profile @p params measure on plat_; a failed measurement
     *  fails the test and yields an empty profile. */
    LatencyProfile
    measured(const XMemHarness::Params &params = fastParams()) const
    {
        util::Result<LatencyProfile> prof =
            XMemHarness(params).measure(plat_);
        EXPECT_TRUE(prof.ok()) << prof.status().toString();
        return prof.valueOr(LatencyProfile());
    }

    platforms::Platform plat_ = test::tinyPlatform();
};

TEST_F(XmemTest, SweepSpansLowToHighBandwidth)
{
    LatencyProfile prof = measured();
    ASSERT_FALSE(prof.empty());
    EXPECT_LT(prof.points().front().bwGBs, 0.25 * plat_.peakGBs);
    EXPECT_GT(prof.maxMeasuredGBs(), 0.6 * plat_.peakGBs);
}

TEST_F(XmemTest, CurveIsMonotone)
{
    LatencyProfile prof = measured();
    double last = 0.0;
    for (const LatencyProfile::Point &pt : prof.points()) {
        EXPECT_GE(pt.latencyNs, last);
        last = pt.latencyNs;
    }
}

TEST_F(XmemTest, IdleLatencyNearControllerIdle)
{
    LatencyProfile prof = measured();
    const sim::SystemParams &s = plat_.proto;
    double idle = ticksToNs(s.l1.accessLat + s.l2.accessLat +
                            (s.hasL3 ? s.l3.accessLat : 0)) +
                  s.mem.frontLatencyNs + s.mem.bankServiceNs +
                  s.mem.backLatencyNs;
    EXPECT_NEAR(prof.idleLatencyNs(), idle, idle * 0.15);
}

TEST_F(XmemTest, LoadedLatencyExceedsIdle)
{
    LatencyProfile prof = measured();
    double at_high = prof.latencyAt(prof.maxMeasuredGBs());
    EXPECT_GT(at_high, prof.idleLatencyNs() * 1.3);
}

TEST_F(XmemTest, ProfileIsIdenticalAtAnyJobCount)
{
    // The operating points are independent fixed-seed runs, each written
    // to its own slot: a fan-out returns exactly the serial profile.
    XMemHarness::Params serial_params = fastParams();
    XMemHarness::Params parallel_params = fastParams();
    parallel_params.jobs = 3;
    const LatencyProfile serial = measured(serial_params);
    const LatencyProfile parallel = measured(parallel_params);
    ASSERT_EQ(parallel.points().size(), serial.points().size());
    for (size_t i = 0; i < serial.points().size(); ++i) {
        EXPECT_EQ(parallel.points()[i].bwGBs, serial.points()[i].bwGBs)
            << "point " << i;
        EXPECT_EQ(parallel.points()[i].latencyNs,
                  serial.points()[i].latencyNs)
            << "point " << i;
    }

    // And the files save() writes are byte-identical.
    auto saved = [](const LatencyProfile &prof, const std::string &name) {
        const std::string path = ::testing::TempDir() + "/" + name;
        EXPECT_TRUE(prof.save(path).ok());
        std::ifstream in(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        std::remove(path.c_str());
        return bytes;
    };
    const std::string serial_file = saved(serial, "jobs1.profile");
    EXPECT_FALSE(serial_file.empty());
    EXPECT_EQ(saved(parallel, "jobs3.profile"), serial_file);
}

TEST_F(XmemTest, WedgedPointFailsTheProfile)
{
    // A point that thinks for 1e12 cycles between requests stops the
    // event queue draining: the watchdog's DeadlineExceeded is the
    // profile's status, the process lives, and nothing is cached.
    XMemHarness::Params params = fastParams();
    params.delays = {1e12};
    util::Result<LatencyProfile> prof = XMemHarness(params).measure(plat_);
    ASSERT_FALSE(prof.ok());
    EXPECT_EQ(prof.status().code(), util::ErrorCode::DeadlineExceeded);
    EXPECT_NE(prof.status().message().find("characterizing 'tiny' at "
                                           "point 0"),
              std::string::npos)
        << prof.status().toString();

    const std::string path = ::testing::TempDir() + "/wedged.profile";
    std::remove(path.c_str());
    util::Result<LatencyProfile> cached =
        XMemHarness(params).measureCachedChecked(plat_, path);
    ASSERT_FALSE(cached.ok());
    EXPECT_EQ(cached.status().code(), util::ErrorCode::DeadlineExceeded);
    EXPECT_FALSE(LatencyProfile::load(path).ok());
}

TEST_F(XmemTest, MeasureCachedRoundTrip)
{
    std::string path = ::testing::TempDir() + "/tiny.profile";
    std::remove(path.c_str());
    XMemHarness h(fastParams());
    LatencyProfile fresh = h.measureCachedChecked(plat_, path).take();
    ASSERT_FALSE(fresh.empty());
    // Second call loads the identical profile from disk.
    LatencyProfile cached = h.measureCachedChecked(plat_, path).take();
    ASSERT_EQ(cached.points().size(), fresh.points().size());
    EXPECT_DOUBLE_EQ(cached.maxMeasuredGBs(), fresh.maxMeasuredGBs());
    std::remove(path.c_str());
}

TEST_F(XmemTest, WrongPlatformCacheIsRemeasured)
{
    std::string path = ::testing::TempDir() + "/wrong.profile";
    ASSERT_TRUE(
        LatencyProfile("otherbox", 10.0, {{1.0, 50.0}}).save(path).ok());
    LatencyProfile prof =
        XMemHarness(fastParams()).measureCachedChecked(plat_, path).take();
    EXPECT_EQ(prof.platformName(), plat_.name);
    std::remove(path.c_str());
}

TEST_F(XmemTest, MissingCacheIsMeasuredAndSaved)
{
    std::string path = ::testing::TempDir() + "/missing_cache.profile";
    std::remove(path.c_str());
    util::Result<LatencyProfile> prof =
        XMemHarness(fastParams()).measureCachedChecked(plat_, path);
    ASSERT_TRUE(prof.ok()) << prof.status().toString();
    EXPECT_FALSE(prof->empty());
    // The measurement was persisted for the next run.
    EXPECT_TRUE(LatencyProfile::load(path).ok());
    std::remove(path.c_str());
}

TEST_F(XmemTest, CorruptCacheIsAnErrorNotASilentRemeasure)
{
    std::string path = ::testing::TempDir() + "/corrupt_cache.profile";
    {
        std::ofstream out(path);
        out << "platform tiny\npeak_gbs 24\npoint 3 oops\n";
    }
    util::Result<LatencyProfile> prof =
        XMemHarness(fastParams()).measureCachedChecked(plat_, path);
    ASSERT_FALSE(prof.ok());
    EXPECT_EQ(prof.status().code(), util::ErrorCode::CorruptData);
    // The message tells the user how to recover.
    EXPECT_NE(prof.status().message().find("--fresh"), std::string::npos);
    // The corrupt file was left in place for inspection.
    std::ifstream still_there(path);
    EXPECT_TRUE(still_there.good());
    std::remove(path.c_str());
}

TEST(XmemPathTest, DefaultPathUsesEnvOrDefault)
{
    platforms::Platform p = platforms::skl();
    unsetenv("LLL_PROFILE_DIR");
    EXPECT_EQ(defaultProfilePath(p), "data/profiles/skl.profile");
    setenv("LLL_PROFILE_DIR", "/tmp/profdir", 1);
    EXPECT_EQ(defaultProfilePath(p), "/tmp/profdir/skl.profile");
    unsetenv("LLL_PROFILE_DIR");
}

} // namespace
} // namespace lll::xmem
