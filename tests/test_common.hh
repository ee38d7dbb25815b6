/**
 * @file
 * Shared helpers for the unit/integration tests: a scaled-down platform
 * that keeps simulations fast, synthetic latency profiles, simple
 * kernel builders, and the checked run and stage paths with their
 * status asserted.
 */

#ifndef LLL_TESTS_TEST_COMMON_HH
#define LLL_TESTS_TEST_COMMON_HH

#include <gtest/gtest.h>

#include "core/sweep.hh"
#include "platforms/platform.hh"
#include "sim/system.hh"
#include "xmem/latency_profile.hh"

namespace lll::test
{

/** A 4-core SKL-like platform for fast tests. */
inline platforms::Platform
tinyPlatform()
{
    platforms::Platform p = platforms::skl();
    p.name = "tiny";
    p.description = "4-core test platform";
    p.totalCores = 4;
    p.peakGBs = 24.0;
    p.peakGFlops = 268.8;
    p.proto.name = "tiny";
    p.proto.mem.peakGBs = 24.0;
    return p;
}

/** A plausible synthetic profile for analyzer/recipe tests. */
inline xmem::LatencyProfile
syntheticProfile(const std::string &platform_name = "tiny",
                 double peak_gbs = 24.0)
{
    std::vector<xmem::LatencyProfile::Point> pts;
    for (double frac : {0.05, 0.2, 0.4, 0.6, 0.75, 0.85, 0.92}) {
        xmem::LatencyProfile::Point pt;
        pt.bwGBs = frac * peak_gbs;
        pt.latencyNs = 80.0 + 120.0 * frac * frac;
        pts.push_back(pt);
    }
    return xmem::LatencyProfile(platform_name, peak_gbs, std::move(pts));
}

/** One random stream, configurable window/compute. */
inline sim::KernelSpec
randomKernel(unsigned window, double compute_cycles,
             uint64_t footprint_lines = 1 << 18)
{
    sim::KernelSpec k;
    k.name = "test-random";
    sim::StreamDesc s;
    s.kind = sim::StreamDesc::Kind::Random;
    s.footprintLines = footprint_lines;
    k.streams.push_back(s);
    k.window = window;
    k.computeCyclesPerOp = compute_cycles;
    return k;
}

/** N sequential streams, configurable window/compute. */
inline sim::KernelSpec
streamingKernel(int streams, unsigned window, double compute_cycles)
{
    sim::KernelSpec k;
    k.name = "test-streaming";
    for (int i = 0; i < streams; ++i) {
        sim::StreamDesc s;
        s.kind = sim::StreamDesc::Kind::Sequential;
        s.footprintLines = 1 << 18;
        k.streams.push_back(s);
    }
    k.window = window;
    k.computeCyclesPerOp = compute_cycles;
    return k;
}

/** @p sys run through runChecked(); a failed run fails the test and
 *  yields an empty RunResult. */
inline sim::RunResult
runOk(sim::System &sys, double warmup_us, double measure_us)
{
    util::Result<sim::RunResult> r = sys.runChecked(warmup_us, measure_us);
    EXPECT_TRUE(r.ok()) << r.status().toString();
    return r.valueOr(sim::RunResult());
}

/** @p units admitted and run on @p profile, the one platform's; a
 *  refused unit fails the test and is left out. */
inline std::vector<core::SweepRunner::StageOutcome>
runOn(const std::vector<core::StageUnit> &units,
      const xmem::LatencyProfile &profile)
{
    std::vector<core::AdmittedStage> stages;
    for (const core::StageUnit &u : units) {
        util::Result<core::AdmittedStage> a = core::admitStage(u);
        EXPECT_TRUE(a.ok()) << a.status().toString();
        if (a.ok())
            stages.push_back(a.take());
    }
    return core::SweepRunner({}).runAdmitted(
        stages, {{profile.platformName(), profile}});
}

/** @p unit through a one-unit batch on @p profile; a failed unit fails
 *  the test and yields empty metrics. */
inline core::StageMetrics
stageOk(const core::StageUnit &unit, const xmem::LatencyProfile &profile)
{
    const std::vector<core::SweepRunner::StageOutcome> out =
        runOn({unit}, profile);
    if (out.empty())
        return {};
    EXPECT_TRUE(out[0].status.ok()) << out[0].status.toString();
    return out[0].metrics;
}

} // namespace lll::test

#endif // LLL_TESTS_TEST_COMMON_HH
