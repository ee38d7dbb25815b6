/**
 * @file
 * Tests for the design-space autotuner (DESIGN.md §17): the axis
 * grammar, candidate construction across both platform layers, the
 * Pareto extractor (against a brute-force oracle), and Searcher
 * end-to-end — accounting reconciliation, prune soundness (pruned
 * frontier == --no-prune frontier), and jobs/permutation invariance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "search/axes.hh"
#include "search/pareto.hh"
#include "search/search.hh"
#include "search/space.hh"
#include "test_common.hh"
#include "util/status.hh"
#include "workloads/spec_workload.hh"

namespace lll::search
{
namespace
{

using util::ErrorCode;

TEST(ParseAxis, ExpandsGeometricRange)
{
    util::Result<Axis> a = parseAxis("l2_mshrs=4:64:*2");
    ASSERT_TRUE(a.ok()) << a.status().toString();
    EXPECT_EQ(a->name, "l2_mshrs");
    EXPECT_EQ(a->values, (std::vector<double>{4, 8, 16, 32, 64}));
}

TEST(ParseAxis, ExpandsArithmeticRange)
{
    util::Result<Axis> a = parseAxis("banks=4:20:+4");
    ASSERT_TRUE(a.ok()) << a.status().toString();
    EXPECT_EQ(a->values, (std::vector<double>{4, 8, 12, 16, 20}));
}

TEST(ParseAxis, ExplicitSetIsSortedCanonically)
{
    util::Result<Axis> a = parseAxis("pf_degree=8,2,4");
    ASSERT_TRUE(a.ok()) << a.status().toString();
    EXPECT_EQ(a->values, (std::vector<double>{2, 4, 8}));
}

TEST(ParseAxis, RejectsBadInput)
{
    const char *cases[] = {
        "l2_mshrs",              // no '='
        "warp_core=1,2",         // unknown axis
        "l2_mshrs=0,4",          // counts start at 1
        "l2_mshrs=4,4",          // duplicate value
        "l2_mshrs=2.5",          // counts are integers
        "l2_sets=3",             // power of two required
        "mem_front_ns=-5",       // latencies are positive
        "l2_mshrs=8:4:+2",       // empty range
        "l2_mshrs=4:8:2",        // step must be +N or *N
        "l2_mshrs=4:8:*1",       // factor must exceed 1
        "l2_mshrs=4:8:+2:9",     // too many ':'
    };
    for (const char *c : cases) {
        util::Result<Axis> a = parseAxis(c);
        ASSERT_FALSE(a.ok()) << c;
        EXPECT_EQ(a.status().code(), ErrorCode::InvalidArgument) << c;
    }
}

TEST(ParsePoint, CanonicalizesNameOrder)
{
    util::Result<Assignment> p = parsePoint("l2_mshrs=48,banks=10");
    ASSERT_TRUE(p.ok()) << p.status().toString();
    EXPECT_EQ(p->label(), "banks=10,l2_mshrs=48");
}

TEST(ParsePoint, RejectsUnknownAxisAndRepeats)
{
    EXPECT_FALSE(parsePoint("flux=3").ok());
    EXPECT_FALSE(parsePoint("banks=2,banks=4").ok());
    EXPECT_FALSE(parsePoint("").ok());
}

TEST(ApplyAssignment, MutatesBothPlatformLayersAndRenames)
{
    platforms::Platform base = test::tinyPlatform();
    Assignment a;
    a.values = {{"banks", 8}, {"l2_mshrs", 24}};
    util::Result<platforms::Platform> cand = applyAssignment(base, a);
    ASSERT_TRUE(cand.ok()) << cand.status().toString();
    EXPECT_EQ(cand->name, "tiny~banks=8,l2_mshrs=24");
    EXPECT_EQ(cand->baseName(), "tiny");
    // Simulator prototype and the paper-level metadata agree.
    EXPECT_EQ(cand->proto.l2.mshrs, 24u);
    EXPECT_EQ(cand->l2Mshrs, 24u);
    EXPECT_EQ(cand->proto.mem.banksOverride, 8u);
    // The base is untouched.
    EXPECT_EQ(base.name, "tiny");
    EXPECT_NE(base.proto.l2.mshrs, 24u);
}

/** O(n^2) reference: a point survives iff nothing dominates it and no
 *  equal (cost, perf) point has a lower index. */
std::vector<ParetoPoint>
bruteForceFrontier(const std::vector<ParetoPoint> &points)
{
    std::vector<ParetoPoint> out;
    for (const ParetoPoint &p : points) {
        bool keep = true;
        for (const ParetoPoint &q : points) {
            if (dominates(q, p) ||
                (q.cost == p.cost && q.perfGBs == p.perfGBs &&
                 q.index < p.index)) {
                keep = false;
                break;
            }
        }
        if (keep)
            out.push_back(p);
    }
    std::sort(out.begin(), out.end(),
              [](const ParetoPoint &a, const ParetoPoint &b) {
                  if (a.cost != b.cost)
                      return a.cost < b.cost;
                  if (a.perfGBs != b.perfGBs)
                      return a.perfGBs > b.perfGBs;
                  return a.index < b.index;
              });
    return out;
}

std::vector<size_t>
indicesOf(const std::vector<ParetoPoint> &points)
{
    std::vector<size_t> out;
    for (const ParetoPoint &p : points)
        out.push_back(p.index);
    return out;
}

TEST(ParetoFrontier, RemovesDominatedPoints)
{
    std::vector<ParetoPoint> pts = {
        {"a", 1.0, 10.0, 0},
        {"b", 2.0, 9.0, 1},  // dominated by a (costlier, slower)
        {"c", 2.0, 12.0, 2},
        {"d", 3.0, 12.0, 3}, // dominated by c (costlier, equal perf)
        {"e", 4.0, 20.0, 4},
    };
    std::vector<size_t> got = indicesOf(paretoFrontier(pts));
    EXPECT_EQ(got, (std::vector<size_t>{0, 2, 4}));
}

TEST(ParetoFrontier, TiesKeepTheLowestIndexOnly)
{
    std::vector<ParetoPoint> pts = {
        {"twin-b", 1.0, 5.0, 7},
        {"twin-a", 1.0, 5.0, 3},
    };
    std::vector<size_t> got = indicesOf(paretoFrontier(pts));
    EXPECT_EQ(got, (std::vector<size_t>{3}));
}

TEST(ParetoFrontier, MatchesBruteForceUnderPermutation)
{
    // A deterministic pseudo-random cloud with deliberate ties.
    std::mt19937_64 rng(42);
    std::vector<ParetoPoint> pts;
    for (size_t i = 0; i < 200; ++i) {
        ParetoPoint p;
        p.index = i;
        p.cost = static_cast<double>(rng() % 20);
        p.perfGBs = static_cast<double>(rng() % 25);
        p.label = "p" + std::to_string(i);
        pts.push_back(p);
    }
    const std::vector<size_t> expected =
        indicesOf(bruteForceFrontier(pts));
    ASSERT_FALSE(expected.empty());
    for (int round = 0; round < 5; ++round) {
        std::shuffle(pts.begin(), pts.end(), rng);
        EXPECT_EQ(indicesOf(paretoFrontier(pts)), expected)
            << "permutation round " << round;
    }
}

/**
 * End-to-end fixture: a tiny 4-core platform, an inline streaming
 * kernel, and a profile directory under the test temp dir so candidate
 * characterization never touches the repo's data/profiles.
 */
class SearcherTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        static const std::string dir =
            ::testing::TempDir() + "/search-profiles";
        setenv("LLL_PROFILE_DIR", dir.c_str(), 1);
    }
    static void TearDownTestSuite() { unsetenv("LLL_PROFILE_DIR"); }

    /** l1_mshrs x mem_front_ns: the high-latency corners have low
     *  analytic ceilings at unchanged-or-higher cost, so the pruner
     *  provably retires them once a cheap fast point has simulated. */
    SearchSpec spec()
    {
        SearchSpec s;
        s.hasBasePlatform = true;
        s.basePlatform = test::tinyPlatform();
        s.platformName = s.basePlatform.name;
        s.hasSpec = true;
        s.spec = test::streamingKernel(4, 8, 2.0);
        s.randomDominated = false;
        Axis l1;
        l1.name = "l1_mshrs";
        l1.values = {1, 4, 10};
        Axis lat;
        lat.name = "mem_front_ns";
        lat.values = {20, 900};
        s.axes = {l1, lat};
        s.cores = 2;
        s.warmupUs = 5.0;
        s.measureUs = 10.0;
        return s;
    }

    SearchResult runOk(const SearchSpec &s, int jobs = 1)
    {
        Searcher::Params p;
        p.jobs = jobs;
        Searcher searcher(p);
        util::Result<SearchResult> r = searcher.run(s);
        EXPECT_TRUE(r.ok()) << r.status().toString();
        return r.take();
    }
};

TEST_F(SearcherTest, AccountingReconcilesAndPruningEngages)
{
    SearchResult r = runOk(spec());
    EXPECT_EQ(r.enumerated, 6u);
    EXPECT_EQ(r.enumerated, r.prunedAnalytic + r.prunedInfeasible +
                                r.simulated);
    EXPECT_EQ(r.rows.size(), r.enumerated);
    // The analytic pre-pass must retire at least one high-latency
    // corner; the frontier is never empty when anything simulated.
    EXPECT_GT(r.prunedAnalytic, 0u);
    EXPECT_LT(r.simulated, r.enumerated);
    ASSERT_FALSE(r.frontier.empty());
    // Frontier rows are flagged, cost-ascending, and within bounds.
    double prev_cost = -1.0;
    for (size_t index : r.frontier) {
        const SearchRow &row = r.rows[index];
        EXPECT_TRUE(row.onFrontier);
        EXPECT_EQ(row.fate, CandidateFate::Simulated);
        EXPECT_GT(row.cost, prev_cost);
        // The ceiling caps the sustained rate; a measurement window
        // may overshoot it within the pruner's slack (§17.2).
        EXPECT_LE(row.bwGBs, row.ceilingGBs * 1.02)
            << row.label << ": simulated above the proven ceiling";
        prev_cost = row.cost;
    }
}

TEST_F(SearcherTest, PrunedFrontierEqualsBruteForceFrontier)
{
    SearchSpec pruned = spec();
    SearchSpec brute = spec();
    brute.disablePruning = true;

    SearchResult rp = runOk(pruned);
    SearchResult rb = runOk(brute);
    EXPECT_EQ(rb.prunedAnalytic, 0u);
    EXPECT_EQ(rb.simulated + rb.prunedInfeasible, rb.enumerated);
    EXPECT_GT(rb.simulated, rp.simulated);

    // Pruning must not change the frontier: a pruned candidate's
    // ceiling is below a strictly cheaper simulated result, so it
    // could never have survived extraction.
    ASSERT_EQ(rp.frontier.size(), rb.frontier.size());
    for (size_t i = 0; i < rp.frontier.size(); ++i) {
        EXPECT_EQ(rp.rows[rp.frontier[i]].label,
                  rb.rows[rb.frontier[i]].label);
        EXPECT_DOUBLE_EQ(rp.rows[rp.frontier[i]].bwGBs,
                         rb.rows[rb.frontier[i]].bwGBs);
    }
}

TEST_F(SearcherTest, AdmissionRefusalIsInfeasibleNotSimulated)
{
    // ISx on 4 KNL cores sustains 15.2 of 400 GB/s at one SMT way,
    // under the 5% line (LLL-LINT-102), so admission refuses the
    // candidate; 2-ht lifts the applied variant above the line, so
    // only admission catches it.  No wave runs, and nothing is
    // characterized.
    SearchSpec s;
    s.platformName = "knl";
    s.workloadName = "isx";
    s.opts = workloads::OptSet{workloads::Opt::Smt2};
    s.cores = 4;
    s.axes = {parseAxis("l1_mshrs=24").take()};
    SearchResult r = runOk(s);
    EXPECT_EQ(r.enumerated, 1u);
    EXPECT_EQ(r.simulated, 0u);
    EXPECT_EQ(r.prunedInfeasible, 1u);
    EXPECT_EQ(r.waves, 0u);
    EXPECT_TRUE(r.frontier.empty());
    ASSERT_EQ(r.rows.size(), 1u);
    const SearchRow &row = r.rows[0];
    EXPECT_EQ(row.fate, CandidateFate::Infeasible);
    EXPECT_EQ(row.status.code(), ErrorCode::FailedPrecondition);
    EXPECT_NE(row.status.message().find("LLL-LINT-102"), std::string::npos)
        << row.status.toString();
    EXPECT_NE(row.status.message().find("stage unit"), std::string::npos)
        << row.status.toString();
}

TEST_F(SearcherTest, ParallelRunIsByteIdenticalToSerial)
{
    // Warm the on-disk candidate profiles once so every run below
    // loads identical inputs (a fresh measurement differs from its
    // disk round-trip in the last ulp).
    (void)runOk(spec());

    SearchResult serial = runOk(spec(), 1);
    SearchResult parallel = runOk(spec(), 4);
    EXPECT_EQ(searchDataJson(serial, true),
              searchDataJson(parallel, true));
    EXPECT_EQ(renderSearchText(serial, true),
              renderSearchText(parallel, true));
}

TEST_F(SearcherTest, ExplicitPointsJoinTheSpace)
{
    SearchSpec s = spec();
    Assignment extra;
    extra.values = {{"banks", 2}, {"l1_mshrs", 2}};
    s.points.push_back(extra);
    SearchResult r = runOk(s);
    EXPECT_EQ(r.enumerated, 7u);
    bool found = false;
    for (const SearchRow &row : r.rows)
        found = found || row.label.find("banks=2") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST_F(SearcherTest, DuplicatePointsCollapse)
{
    SearchSpec s = spec();
    Assignment dup; // already in the cross product
    dup.values = {{"l1_mshrs", 4}, {"mem_front_ns", 20}};
    s.points.push_back(dup);
    SearchResult r = runOk(s);
    EXPECT_EQ(r.enumerated, 6u);
}

TEST_F(SearcherTest, OversizedSpaceIsRefusedUpFront)
{
    SearchSpec s = spec();
    s.maxCandidates = 3;
    Searcher searcher(Searcher::Params{});
    util::Result<SearchResult> r = searcher.run(s);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
}

TEST_F(SearcherTest, CostModelBoundsAreCheckedForEveryFrontEnd)
{
    // `lll search --bank-weight` and a serve search's "bank_weight"
    // both land here; so does a zero candidate cap.
    struct Case
    {
        double bankWeight;
        size_t maxCandidates;
        const char *needle;
    };
    const Case cases[] = {
        {1e12, 4096, "bank weight"},
        {1e9 * (1 + 1e-15), 4096, "bank weight"},
        {-0.5, 4096, "bank weight"},
        {0.5, 0, "max candidates"},
    };
    for (const Case &c : cases) {
        SearchSpec s = spec();
        s.bankWeight = c.bankWeight;
        s.maxCandidates = c.maxCandidates;
        util::Result<SearchResult> r = Searcher(Searcher::Params{}).run(s);
        ASSERT_FALSE(r.ok()) << c.bankWeight;
        EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(r.status().message().find(c.needle), std::string::npos)
            << r.status().toString();
    }
    SearchSpec edge = spec();
    edge.bankWeight = 1e9;
    const workloads::WorkloadPtr w =
        workloads::inlineSpecWorkload(edge.spec, false);
    util::Result<std::vector<Candidate>> ok =
        enumerateSpace(edge, edge.basePlatform, *w);
    EXPECT_TRUE(ok.ok()) << ok.status().toString();
}

TEST_F(SearcherTest, UnknownPlatformAndEmptySpaceAreStructuralErrors)
{
    SearchSpec s = spec();
    s.hasBasePlatform = false;
    s.platformName = "nope";
    util::Result<SearchResult> r = Searcher(Searcher::Params{}).run(s);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::NotFound);

    SearchSpec empty = spec();
    empty.axes.clear();
    empty.points.clear();
    util::Result<SearchResult> e =
        Searcher(Searcher::Params{}).run(empty);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), ErrorCode::InvalidArgument);
}

} // namespace
} // namespace lll::search
