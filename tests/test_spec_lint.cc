/**
 * @file
 * Tests for the spec/config static analyzer (analysis/spec_lint) and
 * the structured-diagnostic type it reports with: analytical bounds,
 * feasible/infeasible verdicts with stable IDs, recipe-reachability
 * probing, and the rendered text/JSON formats.
 */

#include <gtest/gtest.h>

#include "analysis/spec_lint.hh"
#include "test_common.hh"
#include "util/diagnostic.hh"
#include "workloads/workload.hh"

namespace lll::analysis
{
namespace
{

const util::Diagnostic *
find(const util::DiagnosticList &diags, const std::string &id)
{
    for (const util::Diagnostic &d : diags.all()) {
        if (d.id == id)
            return &d;
    }
    return nullptr;
}

// --- diagnostic type ----------------------------------------------------

TEST(DiagnosticTest, RendersSeverityIdSubjectMessage)
{
    util::DiagnosticList diags;
    diags.error("LLL-TST-001", "skl", "cores (%d) must be positive", -1);
    diags.note("LLL-TST-002", "skl", "all good");
    EXPECT_EQ(diags.all()[0].toString(),
              "error LLL-TST-001 [skl]: cores (-1) must be positive");
    EXPECT_EQ(diags.errorCount(), 1u);
    EXPECT_EQ(diags.noteCount(), 1u);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(DiagnosticTest, ToStatusSurfacesFirstError)
{
    util::DiagnosticList diags;
    diags.warning("LLL-TST-001", "x", "only a warning");
    EXPECT_TRUE(diags.toStatus().ok());
    diags.error("LLL-TST-002", "x", "broken");
    util::Status s = diags.toStatus();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), util::ErrorCode::FailedPrecondition);
    EXPECT_NE(s.message().find("LLL-TST-002"), std::string::npos);
}

TEST(DiagnosticTest, JsonEscapesAndListsFindings)
{
    util::DiagnosticList diags;
    diags.error("LLL-TST-001", "a\"b", "say \"hi\"\n");
    std::string json;
    util::JsonWriter w(json);
    diags.writeJson(w);
    EXPECT_NE(json.find("\"id\": \"LLL-TST-001\""), std::string::npos);
    EXPECT_NE(json.find("\\\"hi\\\"\\n"), std::string::npos);
}

// --- analytical bounds --------------------------------------------------

TEST(SpecLintTest, BoundsMatchLittlesLawArithmetic)
{
    platforms::Platform tiny = test::tinyPlatform();
    sim::SystemParams sys = tiny.sysParams(tiny.totalCores, 1);
    sim::KernelSpec spec = test::randomKernel(32, 4.0);

    core::SpecBounds b = core::deriveBounds(sys, spec);
    EXPECT_DOUBLE_EQ(b.exposedMlpPerThread,
                     std::min<double>(32, sys.lqSize));
    EXPECT_EQ(b.l1Mshrs, sys.l1.mshrs);
    EXPECT_EQ(b.l2Mshrs, sys.l2.mshrs);
    EXPECT_TRUE(b.randomDominated);
    EXPECT_GT(b.idleLatencyNs, 0.0);
    // Little's law: ceiling == n * cls / lat summed over cores.
    double expect_l1 = sys.cores * sys.l1.mshrs * sys.lineBytes /
                       b.idleLatencyNs;
    EXPECT_NEAR(b.l1CeilingGBs, expect_l1, 1e-9);
    // Random-dominated: the effective MLP is L1-MSHR-capped.
    EXPECT_LE(b.effectiveMlpPerCore, b.l1Mshrs);
}

TEST(SpecLintTest, StreamingWithPrefetcherUsesL2Queue)
{
    platforms::Platform tiny = test::tinyPlatform();
    sim::SystemParams sys = tiny.sysParams(tiny.totalCores, 1);
    ASSERT_TRUE(sys.l2PrefetcherEnabled);
    sim::KernelSpec spec = test::streamingKernel(4, 16, 8.0);

    core::SpecBounds b = core::deriveBounds(sys, spec);
    EXPECT_FALSE(b.randomDominated);
    EXPECT_TRUE(b.prefetcherCovers);
    EXPECT_DOUBLE_EQ(b.effectiveMlpPerCore,
                     static_cast<double>(b.l2Mshrs));
}

// --- lint verdicts ------------------------------------------------------

TEST(SpecLintTest, FeasibleSpecHasNoErrorsAndClassifiesRegime)
{
    platforms::Platform tiny = test::tinyPlatform();
    sim::SystemParams sys = tiny.sysParams(tiny.totalCores, 1);
    util::DiagnosticList diags =
        lintSpec(sys, test::randomKernel(32, 4.0), "tiny/test");
    EXPECT_FALSE(diags.hasErrors()) << diags.renderText();
    const util::Diagnostic *cls = find(diags, "LLL-LINT-104");
    ASSERT_NE(cls, nullptr);
    EXPECT_EQ(cls->severity, util::Severity::Note);
    EXPECT_EQ(cls->subject, "tiny/test");
}

TEST(SpecLintTest, BrokenSpecReportsStableValidatorIds)
{
    platforms::Platform tiny = test::tinyPlatform();
    sim::SystemParams sys = tiny.sysParams(tiny.totalCores, 1);
    sys.cores = 0;
    util::DiagnosticList diags =
        lintSpec(sys, test::randomKernel(32, 4.0), "tiny/test");
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_NE(find(diags, "LLL-SPEC-001"), nullptr)
        << diags.renderText();
}

TEST(SpecLintTest, TooManyWaysReportsTheTagStoreLimit)
{
    platforms::Platform tiny = test::tinyPlatform();
    sim::SystemParams sys = tiny.sysParams(tiny.totalCores, 1);
    sys.l2.ways = 256;
    util::DiagnosticList diags =
        lintSpec(sys, test::randomKernel(32, 4.0), "tiny/test");
    EXPECT_TRUE(diags.hasErrors());
    const util::Diagnostic *d = find(diags, "LLL-SPEC-020");
    ASSERT_NE(d, nullptr) << diags.renderText();
    EXPECT_NE(d->message.find("256"), std::string::npos) << d->message;
    EXPECT_EQ(find(diags, "LLL-SPEC-008"), nullptr);
}

TEST(SpecLintTest, OverCommittedWindowWarns)
{
    platforms::Platform tiny = test::tinyPlatform();
    sim::SystemParams sys = tiny.sysParams(tiny.totalCores, 1);
    sim::KernelSpec spec =
        test::randomKernel(4 * sys.lqSize, 4.0);
    util::DiagnosticList diags = lintSpec(sys, spec, "tiny/test");
    EXPECT_FALSE(diags.hasErrors());
    EXPECT_NE(find(diags, "LLL-LINT-101"), nullptr)
        << diags.renderText();
}

TEST(SpecLintTest, AllRegistryPairsAreFeasible)
{
    // Acceptance criterion: `lll lint` exits 0 over the whole registry,
    // which is exactly "no config produces an error diagnostic".
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        for (const workloads::WorkloadPtr &w :
             workloads::allWorkloadsAndExtensions()) {
            ConfigLint lint = lintConfig(p, *w, workloads::OptSet{});
            EXPECT_TRUE(lint.feasible())
                << lint.subject << ":\n"
                << lint.diagnostics.renderText();
            EXPECT_TRUE(lint.boundsValid);
        }
    }
}

TEST(SpecLintTest, InfeasibleVariantIsAnErrorWithStableId)
{
    platforms::Platform skl = platforms::skl();
    workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    ConfigLint lint =
        lintConfig(skl, *isx, workloads::OptSet{workloads::Opt::Smt4});
    EXPECT_FALSE(lint.feasible());
    EXPECT_FALSE(lint.boundsValid);
    const util::Diagnostic *err =
        find(lint.diagnostics, "LLL-PLAT-001");
    ASSERT_NE(err, nullptr) << lint.diagnostics.renderText();
    EXPECT_EQ(err->severity, util::Severity::Error);
}

TEST(SpecLintTest, BoundsJsonCarriesEveryField)
{
    platforms::Platform tiny = test::tinyPlatform();
    sim::SystemParams sys = tiny.sysParams(tiny.totalCores, 1);
    core::SpecBounds b = core::deriveBounds(sys, test::randomKernel(32, 4.0));
    std::string json;
    util::JsonWriter w(json);
    core::writeBounds(w, b);
    for (const char *key :
         {"exposed_mlp_per_core", "idle_latency_ns", "peak_gbs",
          "l1_ceiling_gbs", "l2_ceiling_gbs", "mlp_ceiling_gbs",
          "n_avg_at_peak_per_core", "random_dominated"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

// --- recipe reachability ------------------------------------------------

TEST(SpecLintTest, RecipeReachabilityFlagsImpossibleSmtStates)
{
    // skl caps SMT at 2 ways, so the recipe's "4-way HT" state can
    // never be recommended there; a64fx (no SMT) also loses "2-way HT".
    util::DiagnosticList skl =
        lintRecipeReachability(platforms::skl());
    ASSERT_NE(find(skl, "LLL-RCP-001"), nullptr) << skl.renderText();
    EXPECT_FALSE(skl.hasErrors());

    util::DiagnosticList a64fx =
        lintRecipeReachability(platforms::a64fx());
    size_t unreachable = 0;
    for (const util::Diagnostic &d : a64fx.all())
        unreachable += d.id == "LLL-RCP-001";
    EXPECT_EQ(unreachable, 2u) << a64fx.renderText();

    // knl supports 4-way SMT: every SMT state must be reachable.
    util::DiagnosticList knl =
        lintRecipeReachability(platforms::knl());
    EXPECT_EQ(find(knl, "LLL-RCP-001"), nullptr) << knl.renderText();
}

} // namespace
} // namespace lll::analysis
