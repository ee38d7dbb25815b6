/**
 * @file
 * Tests for the event-order determinism checker (analysis/determinism):
 * a deliberately tie-break-sensitive toy handler must be caught, a
 * commuting one must pass, and the real simulator must be order-robust
 * under permuted equal-priority ties.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "analysis/determinism.hh"
#include "sim/event_queue.hh"
#include "test_common.hh"
#include "workloads/workload.hh"

namespace lll::analysis
{
namespace
{

bool
hasDiagnostic(const util::DiagnosticList &diags, const std::string &id)
{
    for (const util::Diagnostic &d : diags.all()) {
        if (d.id == id)
            return true;
    }
    return false;
}

// A handler pair that does NOT commute: "double" then "add three" gives
// 2x+3, the swapped order gives 2(x+3).  Both events land at the same
// tick with the same (default) priority, so their pop order is exactly
// the tie-break freedom the checker perturbs.
MetricVector
racyRunner(uint64_t seed)
{
    sim::EventQueue eq;
    eq.setTieBreakSeed(seed);
    double value = 1.0;
    eq.schedule(100, [&] { value *= 2.0; });
    eq.schedule(100, [&] { value += 3.0; });
    eq.runUntil(1000);
    return {{"value", value}};
}

TEST(DeterminismCheckerTest, CatchesOrderSensitiveToyHandler)
{
    DeterminismReport rep = checkDeterminism(racyRunner, {}, "toy");
    EXPECT_FALSE(rep.deterministic);
    ASSERT_FALSE(rep.diffs.empty());
    EXPECT_EQ(rep.diffs[0].name, "value");
    EXPECT_TRUE(rep.diagnostics.hasErrors());
    EXPECT_TRUE(hasDiagnostic(rep.diagnostics, "LLL-DET-001"));
}

TEST(DeterminismCheckerTest, PassesCommutingHandlers)
{
    // Addition commutes, so any pop order yields the same sum.
    auto runner = [](uint64_t seed) -> MetricVector {
        sim::EventQueue eq;
        eq.setTieBreakSeed(seed);
        double value = 0.0;
        for (int i = 0; i < 8; ++i)
            eq.schedule(100, [&value, i] { value += i; });
        eq.runUntil(1000);
        return {{"sum", value}};
    };
    DeterminismReport rep = checkDeterminism(runner);
    EXPECT_TRUE(rep.deterministic);
    EXPECT_TRUE(rep.diffs.empty());
    EXPECT_FALSE(rep.diagnostics.hasErrors());
    EXPECT_EQ(rep.seedsRun, 3u);
}

TEST(DeterminismCheckerTest, PinnedPrioritiesAreNotPerturbed)
{
    // The same non-commuting pair, but with the order pinned by
    // distinct priorities: no longer a race, so the checker passes.
    auto runner = [](uint64_t seed) -> MetricVector {
        sim::EventQueue eq;
        eq.setTieBreakSeed(seed);
        double value = 1.0;
        eq.schedule(100, sim::schedPrio(sim::SchedBand::Fill),
                    [&] { value *= 2.0; });
        eq.schedule(100, sim::schedPrio(sim::SchedBand::Thread),
                    [&] { value += 3.0; });
        eq.runUntil(1000);
        return {{"value", value}};
    };
    DeterminismReport rep = checkDeterminism(runner);
    EXPECT_TRUE(rep.deterministic) << rep.diagnostics.renderText();
}

TEST(DeterminismCheckerTest, FlagsMetricSetMismatch)
{
    // A runner whose *metric list* changes shape under perturbation is
    // as broken as one whose values drift.
    auto runner = [](uint64_t seed) -> MetricVector {
        if (seed == 0)
            return {{"a", 1.0}};
        return {{"a", 1.0}, {"b", 2.0}};
    };
    DeterminismReport rep = checkDeterminism(runner);
    EXPECT_FALSE(rep.deterministic);
    EXPECT_TRUE(hasDiagnostic(rep.diagnostics, "LLL-DET-002"));
}

TEST(DeterminismCheckerTest, ComparesBitExactlyAndNanEqualsNan)
{
    auto nearly = [](uint64_t seed) -> MetricVector {
        return {{"v", seed == 0 ? 100.0 : 100.0001}};
    };
    EXPECT_FALSE(checkDeterminism(nearly).deterministic);

    auto nan = [](uint64_t) -> MetricVector {
        return {{"v", std::nan("")}};
    };
    EXPECT_TRUE(checkDeterminism(nan).deterministic);
}

TEST(RunMetrics, NamesMatchThePerfbenchStageReference)
{
    // perfbench's reproduce_stages.ref spells each stage as
    // "<label> name=value ..." in runMetrics() order; its first line
    // pins the names and their order.
    std::ifstream in(std::string(LLL_REPO_ROOT) +
                     "/perfbench/ref/reproduce_stages.ref");
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    std::istringstream tokens(line);
    std::vector<std::string> want;
    std::string token;
    while (tokens >> token) {
        const size_t eq = token.find('=');
        if (eq != std::string::npos)
            want.push_back(token.substr(0, eq));
    }
    std::vector<std::string> got;
    for (const Metric &m : runMetrics(sim::RunResult{}))
        got.push_back(m.name);
    EXPECT_EQ(got, want);
}

TEST(DeterminismCheckerTest, RealSimulatorIsOrderRobust)
{
    // The production simulator pins every order-dependent same-tick
    // interaction with scheduling priorities (see SchedBand), so the
    // full RunResult must be bit-identical under permuted ties.
    platforms::Platform skl = platforms::skl();
    workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    DeterminismOptions opt;
    opt.warmupUs = 1.0;
    opt.measureUs = 3.0;
    util::Result<DeterminismReport> rep = checkRunDeterminism(
        skl, *isx, workloads::OptSet{}, opt);
    ASSERT_TRUE(rep.ok()) << rep.status().toString();
    EXPECT_TRUE(rep.value().deterministic)
        << rep.value().diagnostics.renderText();
    EXPECT_EQ(rep.value().seedsRun, 3u);
    EXPECT_GT(rep.value().metricsCompared, 20u);
}

TEST(DeterminismCheckerTest, RealSimulatorRejectsInfeasibleVariant)
{
    platforms::Platform skl = platforms::skl();
    workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    workloads::OptSet opts{workloads::Opt::Smt4};
    util::Result<DeterminismReport> rep =
        checkRunDeterminism(skl, *isx, opts);
    EXPECT_FALSE(rep.ok());
}

} // namespace
} // namespace lll::analysis
