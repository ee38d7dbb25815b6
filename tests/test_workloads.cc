/**
 * @file
 * Tests for the six workload models: well-formed specs on every
 * platform, documented optimization effects, valid paper walks, and the
 * registry.
 */

#include <gtest/gtest.h>

#include "platforms/platform.hh"
#include "workloads/workload.hh"

namespace lll::workloads
{
namespace
{

struct Combo
{
    std::string workload;
    std::string platform;
};

class WorkloadSpecTest : public ::testing::TestWithParam<Combo>
{
  protected:
    WorkloadPtr w_ = findWorkload(GetParam().workload).take();
    platforms::Platform p_ =
        platforms::findPlatform(GetParam().platform).take();
};

TEST_P(WorkloadSpecTest, BaseSpecWellFormed)
{
    sim::KernelSpec k = w_->spec(p_, OptSet{});
    ASSERT_FALSE(k.streams.empty());
    double total_weight = 0.0;
    for (const sim::StreamDesc &s : k.streams) {
        EXPECT_GT(s.weight, 0.0);
        EXPECT_GT(s.footprintLines, 0u);
        EXPECT_LE(s.footprintLines, 1ULL << 23);
        EXPECT_GE(s.reuseFraction, 0.0);
        EXPECT_LE(s.reuseFraction, 1.0);
        total_weight += s.weight;
    }
    EXPECT_GT(total_weight, 0.0);
    EXPECT_GE(k.window, 1u);
    EXPECT_GT(k.computeCyclesPerOp, 0.0);
    EXPECT_GT(k.workPerOp, 0.0);
}

TEST_P(WorkloadSpecTest, AllPaperStagesWellFormed)
{
    for (const ExperimentRow &row : w_->paperRows(p_)) {
        sim::KernelSpec k = w_->spec(p_, row.source);
        EXPECT_FALSE(k.streams.empty()) << row.source.label();
        if (row.applied) {
            sim::KernelSpec k2 = w_->spec(p_, *row.applied);
            EXPECT_FALSE(k2.streams.empty());
        }
    }
}

TEST_P(WorkloadSpecTest, PaperWalkRespectsSmtLimits)
{
    for (const ExperimentRow &row : w_->paperRows(p_)) {
        EXPECT_LE(row.source.smtWays(), p_.maxSmtWays)
            << row.source.label();
        if (row.applied) {
            EXPECT_LE(row.applied->smtWays(), p_.maxSmtWays);
        }
    }
}

TEST_P(WorkloadSpecTest, AppliedExtendsSource)
{
    for (const ExperimentRow &row : w_->paperRows(p_)) {
        if (!row.applied)
            continue;
        // The applied variant contains everything the source had (SMT
        // levels may be swapped 2->4).
        for (Opt o : row.source.opts()) {
            if (o == Opt::Smt2 && row.applied->has(Opt::Smt4))
                continue;
            EXPECT_TRUE(row.applied->has(o))
                << row.source.label() << " -> " << row.applied->label();
        }
        EXPECT_FALSE(*row.applied == row.source);
    }
}

TEST_P(WorkloadSpecTest, SmtPartitionsPrivateFootprints)
{
    if (p_.maxSmtWays < 2)
        GTEST_SKIP() << "no SMT on " << p_.name;
    sim::KernelSpec base = w_->spec(p_, OptSet{});
    sim::KernelSpec smt = w_->spec(p_, OptSet{Opt::Smt2});
    for (size_t i = 0; i < base.streams.size(); ++i) {
        if (base.streams[i].sharedAcrossThreads)
            continue;
        if (base.streams[i].footprintLines <= 1024)
            continue;   // resident working sets are not partitioned
        EXPECT_LE(smt.streams[i].footprintLines,
                  base.streams[i].footprintLines);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, WorkloadSpecTest,
    ::testing::Values(
        Combo{"isx", "skl"}, Combo{"isx", "knl"}, Combo{"isx", "a64fx"},
        Combo{"hpcg", "skl"}, Combo{"hpcg", "knl"},
        Combo{"hpcg", "a64fx"}, Combo{"pennant", "skl"},
        Combo{"pennant", "knl"}, Combo{"pennant", "a64fx"},
        Combo{"comd", "skl"}, Combo{"comd", "knl"},
        Combo{"comd", "a64fx"}, Combo{"minighost", "skl"},
        Combo{"minighost", "knl"}, Combo{"minighost", "a64fx"},
        Combo{"snap", "skl"}, Combo{"snap", "knl"},
        Combo{"snap", "a64fx"}),
    [](const ::testing::TestParamInfo<Combo> &info) {
        return info.param.workload + "_" + info.param.platform;
    });

TEST(WorkloadRegistryTest, AllSixInPaperOrder)
{
    auto all = allWorkloads();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0]->name(), "isx");
    EXPECT_EQ(all[1]->name(), "hpcg");
    EXPECT_EQ(all[2]->name(), "pennant");
    EXPECT_EQ(all[3]->name(), "comd");
    EXPECT_EQ(all[4]->name(), "minighost");
    EXPECT_EQ(all[5]->name(), "snap");
}

TEST(WorkloadRegistryTest, RoutinesMatchTableII)
{
    EXPECT_EQ(findWorkload("isx").take()->routine(), "count_local_keys");
    EXPECT_EQ(findWorkload("hpcg").take()->routine(), "ComputeSPMV_ref");
    EXPECT_EQ(findWorkload("pennant").take()->routine(), "setCornerDiv");
    EXPECT_EQ(findWorkload("comd").take()->routine(), "eamForce");
    EXPECT_EQ(findWorkload("minighost").take()->routine(),
              "mg_stencil_3d27pt");
    EXPECT_EQ(findWorkload("snap").take()->routine(), "dim3_sweep");
}

TEST(WorkloadRegistryTest, AccessClassesMatchPaper)
{
    EXPECT_TRUE(findWorkload("isx").take()->randomDominated());
    EXPECT_TRUE(findWorkload("pennant").take()->randomDominated());
    EXPECT_TRUE(findWorkload("comd").take()->randomDominated());
    EXPECT_FALSE(findWorkload("hpcg").take()->randomDominated());
    EXPECT_FALSE(findWorkload("minighost").take()->randomDominated());
    EXPECT_FALSE(findWorkload("snap").take()->randomDominated());
}

TEST(WorkloadRegistryTest, UnknownNameIsNotFound)
{
    util::Result<WorkloadPtr> r = findWorkload("lulesh");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::NotFound);
    EXPECT_EQ(r.status().message(),
              "unknown workload 'lulesh' (expected isx, hpcg, pennant, "
              "comd, minighost, snap or dgemm)");
}

TEST(WorkloadRegistryTest, FindByNameReturnsThatWorkload)
{
    for (const WorkloadPtr &w : allWorkloadsAndExtensions()) {
        util::Result<WorkloadPtr> found = findWorkload(w->name());
        ASSERT_TRUE(found.ok()) << w->name();
        EXPECT_EQ((*found)->name(), w->name());
    }
}

TEST(WorkloadEffectTest, IsxVectorizationWidensWindow)
{
    WorkloadPtr w = findWorkload("isx").take();
    platforms::Platform skl = platforms::findPlatform("skl").take();
    sim::KernelSpec base = w->spec(skl, OptSet{});
    sim::KernelSpec vect = w->spec(skl, OptSet{Opt::Vectorize});
    EXPECT_GT(vect.window, base.window);
    EXPECT_LT(vect.computeCyclesPerOp, base.computeCyclesPerOp);
}

TEST(WorkloadEffectTest, IsxPrefetchTargetsRandomStream)
{
    WorkloadPtr w = findWorkload("isx").take();
    platforms::Platform knl = platforms::findPlatform("knl").take();
    sim::KernelSpec pref = w->spec(knl, OptSet{Opt::SwPrefetchL2});
    EXPECT_TRUE(pref.swPrefetchL2);
    bool random_flagged = false;
    for (const sim::StreamDesc &s : pref.streams) {
        if (s.kind == sim::StreamDesc::Kind::Random && !s.store)
            random_flagged |= s.swPrefetchable;
    }
    EXPECT_TRUE(random_flagged);
}

TEST(WorkloadEffectTest, MinighostTilingRaisesWorkPerOp)
{
    WorkloadPtr w = findWorkload("minighost").take();
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        sim::KernelSpec base = w->spec(p, OptSet{});
        sim::KernelSpec tiled = w->spec(p, OptSet{Opt::Tiling});
        EXPECT_GE(tiled.workPerOp, base.workPerOp) << p.name;
        EXPECT_LT(tiled.streams.size(), base.streams.size()) << p.name;
    }
}

TEST(WorkloadEffectTest, PennantVectorizationUnlocksMlpAndCoalesces)
{
    WorkloadPtr w = findWorkload("pennant").take();
    platforms::Platform knl = platforms::findPlatform("knl").take();
    sim::KernelSpec base = w->spec(knl, OptSet{});
    sim::KernelSpec vect = w->spec(knl, OptSet{Opt::Vectorize});
    EXPECT_GE(vect.window, base.window * 2);
    EXPECT_GT(vect.workPerOp, base.workPerOp);
}

TEST(WorkloadEffectTest, SnapDistributionOnlyHelpsA64fx)
{
    WorkloadPtr w = findWorkload("snap").take();
    platforms::Platform a = platforms::findPlatform("a64fx").take();
    sim::KernelSpec fused = w->spec(a, OptSet{});
    sim::KernelSpec distr = w->spec(a, OptSet{Opt::Distribution});
    EXPECT_LT(distr.computeCyclesPerOp, fused.computeCyclesPerOp);

    platforms::Platform skl = platforms::findPlatform("skl").take();
    sim::KernelSpec f2 = w->spec(skl, OptSet{});
    sim::KernelSpec d2 = w->spec(skl, OptSet{Opt::Distribution});
    EXPECT_DOUBLE_EQ(d2.computeCyclesPerOp, f2.computeCyclesPerOp);
}

TEST(WorkloadEffectTest, ComdIsComputeDominated)
{
    WorkloadPtr w = findWorkload("comd").take();
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        sim::KernelSpec k = w->spec(p, OptSet{});
        EXPECT_GT(k.computeCyclesPerOp, 20.0) << p.name;
        EXPECT_LE(k.window, 4u) << p.name;
    }
}

TEST(WorkloadEffectTest, DescriptionsMatchTableII)
{
    EXPECT_EQ(findWorkload("isx").take()->description(),
              "Scalable Integer Sort");
    EXPECT_EQ(findWorkload("hpcg").take()->problemSize(), "40^3");
    EXPECT_NE(findWorkload("snap").take()->problemSize().find("nang=48"),
              std::string::npos);
}

} // namespace
} // namespace lll::workloads
