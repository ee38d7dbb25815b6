/**
 * @file
 * Tests for the bandwidth→latency profile: interpolation, clamping,
 * isotonic cleanup, and (de)serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "xmem/latency_profile.hh"

namespace lll::xmem
{
namespace
{

LatencyProfile
simple()
{
    return LatencyProfile("tst", 100.0,
                          {{10.0, 80.0}, {50.0, 120.0}, {90.0, 240.0}});
}

TEST(LatencyProfileTest, ExactPoints)
{
    LatencyProfile p = simple();
    EXPECT_DOUBLE_EQ(p.latencyAt(10.0), 80.0);
    EXPECT_DOUBLE_EQ(p.latencyAt(50.0), 120.0);
    EXPECT_DOUBLE_EQ(p.latencyAt(90.0), 240.0);
}

TEST(LatencyProfileTest, LinearInterpolation)
{
    LatencyProfile p = simple();
    EXPECT_DOUBLE_EQ(p.latencyAt(30.0), 100.0);
    EXPECT_DOUBLE_EQ(p.latencyAt(70.0), 180.0);
}

TEST(LatencyProfileTest, ClampsOutsideRange)
{
    LatencyProfile p = simple();
    EXPECT_DOUBLE_EQ(p.latencyAt(0.0), 80.0);
    EXPECT_DOUBLE_EQ(p.latencyAt(500.0), 240.0);
}

TEST(LatencyProfileTest, LookupFlagsOutOfRangeQueries)
{
    LatencyProfile p = simple();
    LatencyProfile::Lookup below = p.lookup(0.5);
    EXPECT_TRUE(below.belowMeasuredRange);
    EXPECT_FALSE(below.aboveMeasuredRange);
    EXPECT_DOUBLE_EQ(below.latencyNs, 80.0);

    LatencyProfile::Lookup above = p.lookup(500.0);
    EXPECT_TRUE(above.aboveMeasuredRange);
    EXPECT_FALSE(above.belowMeasuredRange);
    EXPECT_DOUBLE_EQ(above.latencyNs, 240.0);

    LatencyProfile::Lookup inside = p.lookup(30.0);
    EXPECT_FALSE(inside.belowMeasuredRange);
    EXPECT_FALSE(inside.aboveMeasuredRange);
    EXPECT_DOUBLE_EQ(inside.latencyNs, 100.0);

    // The measured endpoints themselves are in range.
    EXPECT_FALSE(p.lookup(10.0).belowMeasuredRange);
    EXPECT_FALSE(p.lookup(90.0).aboveMeasuredRange);
}

TEST(LatencyProfileTest, SortsUnorderedPoints)
{
    LatencyProfile p("tst", 100.0,
                     {{90.0, 240.0}, {10.0, 80.0}, {50.0, 120.0}});
    EXPECT_DOUBLE_EQ(p.latencyAt(30.0), 100.0);
}

TEST(LatencyProfileTest, IsotonicCleanupOfNoise)
{
    // A dip in the measured curve is raised to the running maximum.
    LatencyProfile p("tst", 100.0,
                     {{10.0, 100.0}, {50.0, 90.0}, {90.0, 200.0}});
    EXPECT_DOUBLE_EQ(p.latencyAt(50.0), 100.0);
}

TEST(LatencyProfileTest, IdleAndMax)
{
    LatencyProfile p = simple();
    EXPECT_DOUBLE_EQ(p.idleLatencyNs(), 80.0);
    EXPECT_DOUBLE_EQ(p.maxMeasuredGBs(), 90.0);
    EXPECT_DOUBLE_EQ(p.peakGBs(), 100.0);
    EXPECT_EQ(p.platformName(), "tst");
}

TEST(LatencyProfileTest, SerializeRoundTrip)
{
    LatencyProfile p = simple();
    util::Result<LatencyProfile> q = LatencyProfile::parse(p.serialize());
    ASSERT_TRUE(q.ok()) << q.status().toString();
    EXPECT_EQ(q->platformName(), "tst");
    EXPECT_DOUBLE_EQ(q->peakGBs(), 100.0);
    ASSERT_EQ(q->points().size(), 3u);
    EXPECT_DOUBLE_EQ(q->latencyAt(30.0), 100.0);
}

TEST(LatencyProfileTest, SaveLoadRoundTrip)
{
    std::string path = ::testing::TempDir() + "/lll_profile_test.profile";
    ASSERT_TRUE(simple().save(path).ok());
    util::Result<LatencyProfile> q = LatencyProfile::load(path);
    ASSERT_TRUE(q.ok()) << q.status().toString();
    EXPECT_DOUBLE_EQ(q->latencyAt(70.0), 180.0);
    std::remove(path.c_str());
}

TEST(LatencyProfileTest, SaveCreatesParentDirectories)
{
    std::string dir = ::testing::TempDir() + "/lll_nested/a/b";
    std::string path = dir + "/p.profile";
    ASSERT_TRUE(simple().save(path).ok());
    EXPECT_TRUE(LatencyProfile::load(path).ok());
    std::filesystem::remove_all(::testing::TempDir() + "/lll_nested");
}

TEST(LatencyProfileTest, SaveToUnwritablePathIsIoError)
{
    util::Status s = simple().save("/proc/lll-cannot-write-here");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), util::ErrorCode::IoError);
}

TEST(LatencyProfileTest, LoadMissingFileIsNotFound)
{
    util::Result<LatencyProfile> p =
        LatencyProfile::load("/nonexistent/nope.profile");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), util::ErrorCode::NotFound);
}

TEST(LatencyProfileTest, MalformedTextIsCorruptData)
{
    util::Result<LatencyProfile> p =
        LatencyProfile::parse("garbage here\n");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), util::ErrorCode::CorruptData);
    EXPECT_NE(p.status().message().find("unknown profile key"),
              std::string::npos);
    // The offending line number is part of the message.
    EXPECT_NE(p.status().message().find("line 1"), std::string::npos);
}

TEST(LatencyProfileTest, IncompleteTextIsCorruptData)
{
    util::Result<LatencyProfile> p = LatencyProfile::parse("platform x\n");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), util::ErrorCode::CorruptData);
    EXPECT_NE(p.status().message().find("incomplete"), std::string::npos);
}

TEST(LatencyProfileTest, NegativePointIsCorruptData)
{
    util::Result<LatencyProfile> p = LatencyProfile::parse(
        "platform x\npeak_gbs 100\npoint 10 -5\n");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), util::ErrorCode::CorruptData);
}

TEST(LatencyProfileTest, TrailingTokensAreCorruptData)
{
    // A value glued to garbage must not load as the value alone.
    for (const char *bad :
         {"point 51.9520 88.6garbage line", "point 10 80zz",
          "point 10 80 90", "peak_gbs 100 GB/s", "platform skl knl"}) {
        const std::string text =
            std::string("platform skl\npeak_gbs 128\n") + bad + "\n";
        util::Result<LatencyProfile> p = LatencyProfile::parse(text);
        ASSERT_FALSE(p.ok()) << bad;
        EXPECT_EQ(p.status().code(), util::ErrorCode::CorruptData) << bad;
        EXPECT_NE(p.status().message().find("line 3"), std::string::npos)
            << p.status().message();
    }
}

TEST(LatencyProfileTest, CrlfLineEndsParse)
{
    std::string crlf;
    for (char c : simple().serialize()) {
        if (c == '\n')
            crlf += '\r';
        crlf += c;
    }
    // A CRLF file with a trailing blank line ends in "\r\n\r\n", and a
    // line of spaces carries no key either: both are skipped like an
    // empty line.
    std::string spaces = simple().serialize();
    spaces.insert(spaces.find("point"), "   \n");
    for (const std::string &text : {crlf, crlf + "\r\n", spaces}) {
        util::Result<LatencyProfile> p = LatencyProfile::parse(text);
        ASSERT_TRUE(p.ok()) << p.status().toString();
        EXPECT_EQ(p->platformName(), "tst");
        EXPECT_EQ(p->points().size(), 3u);
        EXPECT_EQ(p->serialize(), simple().serialize());
    }
}

/** The committed profile of @p platform, as text. */
std::string
committedProfile(const std::string &platform)
{
    std::ifstream in(std::string(LLL_TEST_GOLDEN_DIR) +
                     "/../../data/profiles/" + platform + ".profile");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(LatencyProfileTest, CommittedProfilesLoadAndRoundTrip)
{
    for (const char *plat : {"skl", "knl", "a64fx"}) {
        const std::string text = committedProfile(plat);
        util::Result<LatencyProfile> p = LatencyProfile::parse(text);
        ASSERT_TRUE(p.ok()) << plat << ": " << p.status().toString();
        EXPECT_EQ(p->platformName(), plat);
        util::Result<LatencyProfile> again =
            LatencyProfile::parse(p->serialize());
        ASSERT_TRUE(again.ok()) << again.status().toString();
        EXPECT_EQ(again->serialize(), p->serialize());
    }
}

TEST(LatencyProfileTest, ProfileCutMidLineIsCorruptData)
{
    // A write cut mid-line, then appended to: the cut point line must
    // not load as a shorter value.
    const std::string text = committedProfile("skl");
    const size_t cut = text.find("\npoint ", text.size() / 2);
    ASSERT_NE(cut, std::string::npos);
    const size_t mid = text.find('.', text.find(' ', cut + 7) + 1) + 2;
    util::Result<LatencyProfile> p =
        LatencyProfile::parse(text.substr(0, mid) + "garbage line\n");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), util::ErrorCode::CorruptData);
    EXPECT_NE(p.status().message().find("garbage"), std::string::npos);
}

TEST(LatencyProfileTest, LoadCorruptFileCarriesPathContext)
{
    std::string path = ::testing::TempDir() + "/lll_corrupt.profile";
    {
        std::ofstream out(path);
        out << "platform tst\npeak_gbs 100\npoint 10";
    }
    util::Result<LatencyProfile> p = LatencyProfile::load(path);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), util::ErrorCode::CorruptData);
    EXPECT_NE(p.status().message().find(path), std::string::npos);
    std::remove(path.c_str());
}

TEST(LatencyProfileDeathTest, EmptyQueriesPanic)
{
    LatencyProfile p;
    EXPECT_TRUE(p.empty());
    EXPECT_DEATH(p.latencyAt(10.0), "empty");
    EXPECT_DEATH(p.idleLatencyNs(), "empty");
}

} // namespace
} // namespace lll::xmem
