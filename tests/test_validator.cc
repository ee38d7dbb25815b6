/**
 * @file
 * Tests for the configuration validator: every shipped platform must
 * self-validate, and each individually broken knob must be rejected
 * with FailedPrecondition and a message naming the knob.
 */

#include <gtest/gtest.h>

#include "sim/validator.hh"
#include "test_common.hh"

namespace lll::sim
{
namespace
{

SystemParams
good()
{
    return test::tinyPlatform().sysParams(2, 1);
}

void
expectRejected(const SystemParams &sp, const char *needle)
{
    util::Status s = validateSystemParams(sp);
    ASSERT_FALSE(s.ok()) << "expected rejection mentioning '" << needle
                         << "'";
    EXPECT_EQ(s.code(), util::ErrorCode::FailedPrecondition);
    EXPECT_NE(s.message().find(needle), std::string::npos)
        << "got: " << s.message();
}

TEST(ValidatorTest, ShippedPlatformsSelfValidate)
{
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        util::Status s = validateSystemParams(p.sysParams(p.totalCores, 1));
        EXPECT_TRUE(s.ok()) << p.name << ": " << s.toString();
    }
    EXPECT_TRUE(validateSystemParams(good()).ok());
}

TEST(ValidatorTest, RejectsBadCoreAndThreadCounts)
{
    SystemParams sp = good();
    sp.cores = 0;
    expectRejected(sp, "cores");

    sp = good();
    sp.threadsPerCore = 0;
    expectRejected(sp, "threadsPerCore");

    sp = good();
    sp.threadsPerCore = 3; // smtCapacity[3] == 0 on the tiny platform
    expectRejected(sp, "SMT");
}

TEST(ValidatorTest, RejectsBadClockAndLine)
{
    SystemParams sp = good();
    sp.freqGHz = 0.0;
    expectRejected(sp, "freqGHz");

    sp = good();
    sp.lineBytes = 48; // not a power of two
    expectRejected(sp, "lineBytes");

    sp = good();
    sp.lqSize = 0;
    expectRejected(sp, "load-queue");
}

TEST(ValidatorTest, RejectsBadCacheGeometry)
{
    SystemParams sp = good();
    sp.l1.sets = 48; // not a power of two
    expectRejected(sp, "sets");

    sp = good();
    sp.l2.ways = 0;
    expectRejected(sp, "ways");

    // One-byte recency ranks order at most Cache::kMaxWays ways.
    sp = good();
    sp.l2.ways = Cache::kMaxWays;
    EXPECT_TRUE(validateSystemParams(sp).ok());
    sp.l2.ways = Cache::kMaxWays + 1;
    expectRejected(sp, "ways");

    sp = good();
    sp.l1.mshrs = 0;
    expectRejected(sp, "MSHR");

    sp = good();
    sp.l2.prefetchReserve = sp.l2.mshrs;
    expectRejected(sp, "prefetchReserve");
}

TEST(ValidatorTest, SharedLlcMayHaveUnboundedMshrs)
{
    Cache::Params llc;
    llc.sets = 4096;
    llc.ways = 16;
    llc.mshrs = 0; // legitimate for the LLC
    EXPECT_TRUE(validateCacheParams(llc, "l3", false).ok());
    EXPECT_FALSE(validateCacheParams(llc, "l1", true).ok());
}

TEST(ValidatorTest, RejectsBadPrefetcherKnobs)
{
    SystemParams sp = good();
    sp.l2PrefetcherEnabled = true;
    sp.pf.degree = 0;
    expectRejected(sp, "degree");

    // The same knob is fine when the prefetcher is off.
    sp.l2PrefetcherEnabled = false;
    EXPECT_TRUE(validateSystemParams(sp).ok());
}

TEST(ValidatorTest, RejectsBadMemoryController)
{
    SystemParams sp = good();
    sp.mem.peakGBs = -1.0;
    expectRejected(sp, "peakGBs");

    sp = good();
    sp.mem.bankServiceNs = 0.0;
    expectRejected(sp, "bankServiceNs");
}

TEST(ValidatorTest, RejectsBankMathBelowDeclaredPeak)
{
    // One bank serving a 64B line every bankServiceNs cannot sustain
    // the tiny platform's 24 GB/s peak.
    SystemParams sp = good();
    sp.mem.banksOverride = 1;
    expectRejected(sp, "banks");
}

TEST(ValidatorTest, RejectsBadWatchdogKnobs)
{
    SystemParams sp = good();
    sp.watchdog.cadenceUs = 0.0;
    expectRejected(sp, "watchdog");

    sp = good();
    sp.watchdog.maxStrikes = 0;
    expectRejected(sp, "maxStrikes");
}

TEST(ValidatorTest, AcceptsGoodKernels)
{
    EXPECT_TRUE(validateKernelSpec(test::randomKernel(8, 4.0)).ok());
    EXPECT_TRUE(validateKernelSpec(test::streamingKernel(3, 8, 4.0)).ok());
}

TEST(ValidatorTest, RejectsBadKernels)
{
    KernelSpec k = test::randomKernel(8, 4.0);
    k.streams.clear();
    EXPECT_EQ(validateKernelSpec(k).code(),
              util::ErrorCode::FailedPrecondition);

    k = test::randomKernel(8, 4.0);
    k.window = 0;
    EXPECT_FALSE(validateKernelSpec(k).ok());

    k = test::randomKernel(8, 4.0);
    k.computeCyclesPerOp = -1.0;
    EXPECT_FALSE(validateKernelSpec(k).ok());

    k = test::randomKernel(8, 4.0);
    k.streams[0].footprintLines = 0;
    EXPECT_FALSE(validateKernelSpec(k).ok());

    k = test::randomKernel(8, 4.0);
    k.streams[0].weight = 0.0;
    EXPECT_FALSE(validateKernelSpec(k).ok());

    k = test::randomKernel(8, 4.0);
    k.streams[0].kind = StreamDesc::Kind::Strided;
    k.streams[0].strideLines = 0;
    EXPECT_FALSE(validateKernelSpec(k).ok());

    k = test::randomKernel(8, 4.0);
    k.streams[0].reuseFraction = 1.5;
    EXPECT_FALSE(validateKernelSpec(k).ok());
}

} // namespace
} // namespace lll::sim
