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
#include <map>
#include <string>

#include "platforms/platform.hh"
#include "search/axes.hh"
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

/** The bytes LatencyProfile::save() writes for @p prof. */
std::string
savedBytes(const LatencyProfile &prof, const std::string &name)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    EXPECT_TRUE(prof.save(path).ok());
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return bytes;
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
    const std::string serial_file = savedBytes(serial, "jobs1.profile");
    EXPECT_FALSE(serial_file.empty());
    EXPECT_EQ(savedBytes(parallel, "jobs3.profile"), serial_file);
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

TEST(PointMemoTest, ReusedPointsEqualFreshOnesOverTheSearchSpace)
{
    // The benchmark's search space on skl (l2_mshrs=8:32:*2 x
    // banks=8:16:+4), each candidate characterized twice: through one
    // memo shared by the whole space, and fresh, through a memo of its
    // own that has nothing to reuse but records each run's peaks.
    XMemHarness::Params params = fastParams();
    params.warmupUs = 2.0;
    params.measureUs = 4.0;
    params.jobs = 2;
    PointMemo shared;
    const XMemHarness memoized(params, &shared);
    const platforms::Platform base = platforms::skl();
    const unsigned l2_reserve = base.proto.l2.prefetchReserve;
    size_t reused = 0;
    size_t near_capacity = 0;
    for (double banks : {8.0, 12.0, 16.0}) {
        for (double l2_mshrs : {8.0, 16.0, 32.0}) {
            search::Assignment assign;
            assign.values = {{"banks", banks}, {"l2_mshrs", l2_mshrs}};
            util::Result<platforms::Platform> cand =
                search::applyAssignment(base, assign);
            ASSERT_TRUE(cand.ok()) << cand.status().toString();
            SCOPED_TRACE(cand->name);

            PointMemo own;
            util::Result<LatencyProfile> fresh =
                XMemHarness(params, &own).measure(*cand);
            util::Result<LatencyProfile> memo = memoized.measure(*cand);
            ASSERT_TRUE(fresh.ok()) << fresh.status().toString();
            ASSERT_TRUE(memo.ok()) << memo.status().toString();
            EXPECT_EQ(savedBytes(*memo, "memo.profile"),
                      savedBytes(*fresh, "fresh.profile"));
            ASSERT_EQ(memo->points().size(), fresh->points().size());
            for (size_t i = 0; i < fresh->points().size(); ++i) {
                EXPECT_EQ(memo->points()[i].bwGBs, fresh->points()[i].bwGBs)
                    << "point " << i;
                EXPECT_EQ(memo->points()[i].latencyNs,
                          fresh->points()[i].latencyNs)
                    << "point " << i;
            }

            // Only L2 capacities differ across the space.  A reused
            // point's source run is this candidate's run event for
            // event, so it peaked where the fresh run did; a run whose
            // peak came within the prefetch reserve of this capacity is
            // never reused.
            std::map<size_t, PointMemo::Use> fresh_use;
            for (const PointMemo::Use &u : own.uses()) {
                EXPECT_FALSE(u.reused);
                fresh_use[u.point] = u;
            }
            ASSERT_EQ(fresh_use.size(), fresh->points().size());
            for (const PointMemo::Use &u : shared.uses()) {
                if (u.platform != cand->name)
                    continue;
                const PointMemo::Use &f = fresh_use.at(u.point);
                const bool touched =
                    f.peak[1] + l2_reserve >= cand->proto.l2.mshrs;
                near_capacity += touched ? 1 : 0;
                if (!u.reused)
                    continue;
                ++reused;
                EXPECT_FALSE(touched) << "point " << u.point;
                EXPECT_EQ(u.peak, f.peak) << "point " << u.point;
            }
        }
    }
    // The space exercises both sides of the rule.
    EXPECT_GT(reused, 0u);
    EXPECT_GT(near_capacity, 0u);
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
