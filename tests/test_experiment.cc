/**
 * @file
 * Tests for the stage step: what one stage carries, how it fails,
 * what admission and create() refuse, and paper-table assembly, run on
 * a reduced core count for speed.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/littles_law.hh"
#include "core/sweep.hh"
#include "core/tma.hh"
#include "sim/system.hh"
#include "test_common.hh"
#include "workloads/spec_workload.hh"
#include "workloads/workload.hh"

namespace lll::core
{
namespace
{

/** The committed X-Mem profile of @p platform, the one every
 *  paper-facing run reads. */
util::Result<xmem::LatencyProfile>
committedProfile(const std::string &platform)
{
    return xmem::LatencyProfile::load(std::string(LLL_REPO_ROOT) +
                                      "/data/profiles/" + platform +
                                      ".profile");
}

/** The paper table of @p w on @p p: the planned stages at @p knobs'
 *  windows and cores, one batch on @p profile, read back by the
 *  assembler. */
std::vector<TableRow>
paperTable(const platforms::Platform &p, const workloads::WorkloadPtr &w,
           const xmem::LatencyProfile &profile,
           const SweepRunner::StageUnit &knobs = {})
{
    PaperPlan plan = planPaperTables({&p, 1}, {&w, 1});
    for (SweepRunner::StageUnit &u : plan.stages) {
        u.warmupUs = knobs.warmupUs;
        u.measureUs = knobs.measureUs;
        u.coresUsed = knobs.coresUsed;
    }
    util::Result<std::vector<PaperTable>> tables =
        assemblePaperTables(plan, test::runOn(plan.stages, profile));
    if (!tables.ok() || tables->size() != 1) {
        ADD_FAILURE() << tables.status().toString();
        return {};
    }
    return tables->front().rows;
}

class ExperimentTest : public ::testing::Test
{
  protected:
    ExperimentTest()
        : plat_(platforms::findPlatform("skl").take()),
          isx_(workloads::findWorkload("isx").take()),
          profile_(test::syntheticProfile("skl", plat_.peakGBs)),
          unit_{plat_, isx_.get(), {}, 5.0, 10.0, 6}
    {
    }

    platforms::Platform plat_;
    workloads::WorkloadPtr isx_;
    xmem::LatencyProfile profile_;
    SweepRunner::StageUnit unit_;
};

TEST_F(ExperimentTest, StageCarriesAnalysisAndProfile)
{
    const StageMetrics m = test::stageOk(unit_, profile_);
    EXPECT_EQ(m.label, "base");
    EXPECT_GT(m.run.totalGBs, 0.0);
    EXPECT_NEAR(m.profile.totalGBs, m.run.totalGBs, 0.01);
    EXPECT_GT(m.analysis.nAvg, 0.0);
    // ISx is random-dominated: the workload hint routes to L1.
    EXPECT_EQ(m.analysis.limitingLevel, MshrLevel::L1);
    EXPECT_EQ(m.analysis.coresUsed, 6);
}

TEST_F(ExperimentTest, WatchdogTripFailsOnlyItsUnit)
{
    // A random stream that thinks for 1e12 cycles between requests
    // stops the event queue draining.  The watchdog's DeadlineExceeded
    // is that unit's status; the unit beside it still completes.
    const workloads::WorkloadPtr wedge = workloads::inlineSpecWorkload(
        test::randomKernel(2, 1e12), true);
    SweepRunner::StageUnit stuck = unit_;
    stuck.workload = wedge.get();
    const std::vector<SweepRunner::StageOutcome> out =
        test::runOn({stuck, unit_}, profile_);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].status.code(), util::ErrorCode::DeadlineExceeded);
    EXPECT_NE(out[0].status.message().find("stage unit skl/test-random"),
              std::string::npos)
        << out[0].status.toString();
    EXPECT_TRUE(out[1].status.ok()) << out[1].status.toString();
    EXPECT_GT(out[1].metrics.throughput, 0.0);
}

TEST_F(ExperimentTest, PaperTableMatchesRows)
{
    auto rows = paperTable(plat_, isx_, profile_, unit_);
    auto expected = isx_->paperRows(plat_);
    ASSERT_EQ(rows.size(), expected.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].source, expected[i].source.label());
        EXPECT_EQ(rows[i].optLabel, expected[i].optLabel);
        EXPECT_DOUBLE_EQ(rows[i].paperSpeedup, expected[i].paperSpeedup);
        if (expected[i].applied) {
            EXPECT_GT(rows[i].speedup, 0.0);
        } else {
            EXPECT_DOUBLE_EQ(rows[i].speedup, 0.0);
            EXPECT_FALSE(rows[i].recipeRecommended);
        }
    }
}

TEST(PaperTableRecipe, IsxVerdictsArePinned)
{
    // The full Table IV walk (all cores, the workload's own windows,
    // the committed X-Mem profiles): which tried optimizations the
    // recipe recommended.  The recipe steers away from vectorization
    // and SMT while the L1 MSHRs are full, and toward the L2 software
    // prefetch that moves misses into the larger L2 queue.
    using Verdicts = std::vector<std::pair<std::string, bool>>;
    const std::vector<std::pair<std::string, Verdicts>> expected = {
        {"skl", {{"Vect", false}, {"2-way HT", false}}},
        {"knl",
         {{"Vect", false}, {"2-way HT", false}, {"4-way HT", false},
          {"L2 Pref", true}}},
        {"a64fx", {{"L2 Pref", true}}},
    };
    workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    for (const auto &[name, verdicts] : expected) {
        platforms::Platform p = platforms::findPlatform(name).take();
        util::Result<xmem::LatencyProfile> profile = committedProfile(name);
        ASSERT_TRUE(profile.ok()) << profile.status().toString();
        Verdicts got;
        for (const TableRow &row : paperTable(p, isx, *profile)) {
            if (row.speedup > 0.0)
                got.emplace_back(row.optLabel, row.recipeRecommended);
        }
        EXPECT_EQ(got, verdicts) << name;
    }
}

// The paper's claims that a table does not carry, checked on the full
// socket against the committed profiles.

TEST(PaperClaims, TmaHidesWhatMlpShows)
{
    // §I/§II: TMA's view of the same runs.  On hpcg at near-peak
    // bandwidth the load-latency facility averages over prefetched
    // hits and reports a small fraction of the loaded latency; on SNAP
    // it splits memory-bound time into near-equal bandwidth and latency
    // buckets, while n_avg shows the MSHR queue far from full.
    platforms::Platform skl = platforms::findPlatform("skl").take();
    util::Result<xmem::LatencyProfile> profile = committedProfile("skl");
    ASSERT_TRUE(profile.ok()) << profile.status().toString();
    const Tma tma(skl);
    {
        workloads::WorkloadPtr hpcg = workloads::findWorkload("hpcg").take();
        const StageMetrics m =
            test::stageOk({skl, hpcg.get(), {}}, *profile);
        const TmaReport r = tma.analyze(m.run);
        EXPECT_LT(r.avgLoadLatencyCycles,
                  0.15 * m.analysis.latencyNs * skl.freqGHz);
    }
    {
        workloads::WorkloadPtr snap = workloads::findWorkload("snap").take();
        const StageMetrics m =
            test::stageOk({skl, snap.get(), {}}, *profile);
        const TmaReport r = tma.analyze(m.run);
        EXPECT_NEAR(r.bandwidthBoundPct, r.latencyBoundPct, 10.0);
        EXPECT_LT(m.analysis.nAvg, 0.5 * m.analysis.limitingMshrs);
    }
}

TEST(PaperClaims, IdleLatencyHidesTheFullIsxQueue)
{
    // "Idle memory latency cannot be used for this purpose": Eq. 2 with
    // the loaded latency calls ISx's L1 queue full, with the idle
    // latency it would not.
    const double full = kMshrFullFraction;
    workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    for (const std::string name : {"skl", "knl"}) {
        platforms::Platform p = platforms::findPlatform(name).take();
        util::Result<xmem::LatencyProfile> profile = committedProfile(name);
        ASSERT_TRUE(profile.ok()) << profile.status().toString();
        const Analysis a =
            test::stageOk({p, isx.get(), {}}, *profile).analysis;
        const double n_idle = mlpPerCore(
            a.bwGBs, profile->idleLatencyNs(), p.lineBytes, a.coresUsed);
        EXPECT_TRUE(a.nearMshrLimit) << name;
        EXPECT_GE(a.nAvg, full * a.limitingMshrs) << name;
        EXPECT_LT(n_idle, full * a.limitingMshrs) << name;
    }
}

TEST(PaperClaims, WholeProgramAveragingHidesThePinnedPhase)
{
    // Footnote 1 / §III-D: one window over a program alternating ISx's
    // L1-pinned phase with CoMD's compute phase yields an Eq. 2 n_avg
    // far below the L1 queue, so the verdict is wrong for the ISx
    // phase that the per-routine analysis calls full.
    platforms::Platform skl = platforms::findPlatform("skl").take();
    util::Result<xmem::LatencyProfile> profile = committedProfile("skl");
    ASSERT_TRUE(profile.ok()) << profile.status().toString();
    workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    workloads::WorkloadPtr comd = workloads::findWorkload("comd").take();

    EXPECT_TRUE(test::stageOk({skl, isx.get(), {}}, *profile)
                    .analysis.nearMshrLimit);

    // Op counts give the two routines comparable shares of wall time.
    std::vector<sim::PhaseSpec> phases = {{isx->spec(skl, {}), 6000},
                                          {comd->spec(skl, {}), 2000}};
    sim::System sys(skl.sysParams(skl.totalCores, 1), std::move(phases));
    const sim::RunResult mixed = test::runOk(sys, 120.0, 240.0);
    const double n_mix =
        mlpPerCore(mixed.totalGBs, profile->latencyAt(mixed.totalGBs),
                   skl.lineBytes, skl.totalCores);
    EXPECT_GT(n_mix, 0.0);
    EXPECT_LT(n_mix, 0.5 * skl.l1Mshrs);
}

TEST_F(ExperimentTest, CoresUsedDefaultsToAll)
{
    SweepRunner::StageUnit all = unit_;
    all.coresUsed = 0;
    EXPECT_EQ(test::stageOk(all, profile_).analysis.coresUsed,
              plat_.totalCores);
}

TEST_F(ExperimentTest, ThroughputBasisIsWorkUnits)
{
    const StageMetrics m = test::stageOk(unit_, profile_);
    EXPECT_NEAR(m.throughput, m.run.throughput, 1e-9);
    EXPECT_GT(m.throughput, 0.0);
}

TEST_F(ExperimentTest, CreateRefusesProfileOfAnotherPlatform)
{
    // The one check that needs a profile: a knl profile cannot analyze
    // an skl stage.
    const platforms::Platform knl = platforms::findPlatform("knl").take();
    auto exp = Experiment::create(
        plat_, *isx_, test::syntheticProfile("knl", knl.peakGBs), {});
    ASSERT_FALSE(exp.ok());
    EXPECT_EQ(exp.status().code(), util::ErrorCode::FailedPrecondition);
    EXPECT_NE(exp.status().message().find(
                  "profile is for 'knl' but platform is 'skl'"),
              std::string::npos)
        << exp.status().toString();
}

TEST_F(ExperimentTest, AdmissionAcceptsNonVacuousConfig)
{
    util::Result<AdmittedStage> a = admitStage(unit_);
    ASSERT_TRUE(a.ok()) << a.status().toString();
    EXPECT_EQ(a->stageKey,
              ResultCache::stageKey(plat_, isx_->spec(plat_, {}), {}, 7,
                                    5.0, 10.0, 6));
}

TEST_F(ExperimentTest, AdmissionFillsInDefaults)
{
    SweepRunner::StageUnit defaults{plat_, isx_.get(), {}};
    util::Result<AdmittedStage> a = admitStage(defaults);
    ASSERT_TRUE(a.ok()) << a.status().toString();
    EXPECT_EQ(a->coresUsed, plat_.defaultCores());
    EXPECT_DOUBLE_EQ(a->warmupUs, isx_->warmupUs());
    EXPECT_DOUBLE_EQ(a->measureUs, isx_->measureUs());
    EXPECT_EQ(a->sys.cores, plat_.defaultCores());
}

TEST_F(ExperimentTest, AdmissionRefusesVacuousConfig)
{
    // One KNL core barely loads the memory system: deriveBounds() puts
    // the MLP ceiling under 5% of peak (LLL-LINT-102), so every
    // Little's-law conclusion would be noise.  Admission must refuse
    // instead of simulating.
    platforms::Platform knl = platforms::findPlatform("knl").take();
    workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    util::Result<AdmittedStage> a =
        admitStage({knl, isx.get(), {}, 5.0, 10.0, 1});
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), util::ErrorCode::FailedPrecondition);
    EXPECT_NE(a.status().message().find("LLL-LINT"), std::string::npos);
    EXPECT_EQ(a.status().message().rfind("stage unit knl/isx: ", 0), 0u)
        << a.status().toString();
}

} // namespace
} // namespace lll::core
