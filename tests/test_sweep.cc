/**
 * @file
 * Tests for the sweep runner and result cache (DESIGN.md §11): parallel
 * and serial runs must produce identical rows and identical merged
 * telemetry, memoized stages must skip the simulator, and the on-disk
 * spill format must round-trip byte-exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "obs/export.hh"
#include "obs/span.hh"
#include "service/service.hh"
#include "test_common.hh"
#include "workloads/workload.hh"
#include "xmem/profile_store.hh"
#include "xmem/xmem_harness.hh"

namespace lll::core
{
namespace
{

using workloads::Opt;
using workloads::OptSet;

/** The paper walks of @p wls on @p platforms, each stage on short
 *  windows and a partial core count: fast, while still exercising
 *  every stage of the walk. */
PaperPlan
fastPlan(const std::vector<workloads::WorkloadPtr> &wls,
         const std::vector<platforms::Platform> &platforms)
{
    PaperPlan plan = planPaperTables(platforms, wls);
    for (SweepRunner::StageUnit &u : plan.stages) {
        u.warmupUs = 5.0;
        u.measureUs = 10.0;
        u.coresUsed = 6;
    }
    return plan;
}

/** Two high-bandwidth workloads: both stay non-vacuous (LLL-LINT-102)
 *  on every platform at the reduced fastPlan() core count, unlike
 *  e.g. comd/pennant on knl. */
std::vector<workloads::WorkloadPtr>
twoWorkloads()
{
    std::vector<workloads::WorkloadPtr> wls;
    wls.push_back(workloads::findWorkload("isx").take());
    wls.push_back(workloads::findWorkload("hpcg").take());
    return wls;
}

std::vector<platforms::Platform>
twoPlatforms()
{
    return {platforms::skl(), platforms::knl()};
}

/** Ensure the on-disk profile cache exists before any run under
 *  comparison.  Profile files store points as %.4f, so the very first
 *  measurement in a fresh directory hands the runner an in-memory
 *  profile that differs from its disk round-trip in the low digits —
 *  warming the cache here keeps every compared run on the loaded
 *  (truncated) profile. */
void
warmProfileCache()
{
    for (const platforms::Platform &p : twoPlatforms()) {
        util::Result<xmem::LatencyProfile> prof =
            xmem::XMemHarness().measureCachedChecked(
                p, xmem::defaultProfilePath(p));
        ASSERT_TRUE(prof.ok()) << prof.status().toString();
    }
}

/** @p plan as one runStages() batch, assembled into its tables. */
util::Result<std::vector<PaperTable>>
runTables(const SweepRunner::Params &sp, const PaperPlan &plan)
{
    return assemblePaperTables(plan, SweepRunner(sp).runStages(plan.stages));
}

void
expectSameRows(const std::vector<PaperTable> &a,
               const std::vector<PaperTable> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].platform, b[i].platform);
        EXPECT_EQ(a[i].workload, b[i].workload);
        ASSERT_EQ(a[i].rows.size(), b[i].rows.size());
        for (size_t j = 0; j < a[i].rows.size(); ++j) {
            const TableRow &x = a[i].rows[j];
            const TableRow &y = b[i].rows[j];
            EXPECT_EQ(x.source, y.source);
            EXPECT_EQ(x.optLabel, y.optLabel);
            EXPECT_DOUBLE_EQ(x.bwGBs, y.bwGBs);
            EXPECT_DOUBLE_EQ(x.pctPeak, y.pctPeak);
            EXPECT_DOUBLE_EQ(x.latencyNs, y.latencyNs);
            EXPECT_DOUBLE_EQ(x.nAvg, y.nAvg);
            EXPECT_DOUBLE_EQ(x.speedup, y.speedup);
            EXPECT_DOUBLE_EQ(x.paperSpeedup, y.paperSpeedup);
        }
    }
}

uint64_t
simulateSpanCount()
{
    uint64_t n = 0;
    for (const obs::SpanTracker::Stat &s :
         obs::SpanTracker::global().stats()) {
        if (s.path.find("simulate") != std::string::npos)
            n += s.count;
    }
    return n;
}

/** A StageMetrics with every serialized field set to a distinctive
 *  value, for spill round-trip checks. */
StageMetrics
distinctiveMetrics()
{
    StageMetrics m;
    m.opts = OptSet{}.with(Opt::Vectorize).with(Opt::Tiling);
    m.label = m.opts.label();
    m.throughput = 123.5e6;
    m.run.measureSeconds = 1.25e-5;
    m.run.totalGBs = 98.75;
    m.run.opsIssued = 987654321ULL;
    m.run.avgMemLatencyNs = 231.0625;
    m.run.l1FullStalls = 42;
    m.run.eventsProcessed = 1234567ULL;
    m.profile.routine = "test_routine";
    m.profile.totalGBs = 98.75;
    m.profile.demandFraction = 0.875;
    m.profile.demandFractionKnown = true;
    m.analysis.routine = "test_routine";
    m.analysis.platform = "skl";
    m.analysis.bwGBs = 98.75;
    m.analysis.pctPeak = 0.7715;
    m.analysis.latencyNs = 231.0625;
    m.analysis.nAvg = 8.921875;
    m.analysis.accessClass = AccessClass::Random;
    m.analysis.limitingLevel = MshrLevel::L1;
    m.analysis.limitingMshrs = 10;
    m.analysis.headroom = 1.078125;
    m.analysis.nearMshrLimit = true;
    m.analysis.activeStreams = 3;
    m.analysis.activeStreamsKnown = true;
    m.analysis.coresUsed = 6;
    // The last warning holds every byte class the escape must carry
    // through a spill file: quote, backslash, \r and a raw control byte.
    m.analysis.warnings = {"first warning", "second \"quoted\" one",
                           "a \"q\" \\ b\r\x01 end"};
    return m;
}

TEST(PaperPlan, WorkloadMajorOrder)
{
    std::vector<workloads::WorkloadPtr> wls = twoWorkloads();
    const PaperPlan plan = planPaperTables(twoPlatforms(), wls);
    ASSERT_EQ(plan.tables.size(), 4u);
    const std::vector<PaperPlan::Table> &t = plan.tables;
    EXPECT_EQ(t[0].workload->name(), t[1].workload->name());
    EXPECT_EQ(t[2].workload->name(), t[3].workload->name());
    EXPECT_NE(t[0].workload->name(), t[2].workload->name());
    EXPECT_EQ(t[0].platform.name, t[2].platform.name);

    // Each table's stages are its own, contiguous and in plan order,
    // on the default windows, cores and seed.
    size_t next = 0;
    for (const PaperPlan::Table &table : plan.tables) {
        const size_t first = next;
        for (const PaperPlan::Row &row : table.rows) {
            std::vector<size_t> named = {row.source};
            if (row.walk.applied)
                named.push_back(row.applied);
            for (size_t i : named) {
                ASSERT_LT(i, plan.stages.size());
                EXPECT_GE(i, first);
                EXPECT_LE(i, next);
                next = std::max(next, i + 1);
                const SweepRunner::StageUnit &u = plan.stages[i];
                EXPECT_EQ(u.platform.name, table.platform.name);
                EXPECT_EQ(u.workload, table.workload);
                EXPECT_DOUBLE_EQ(u.warmupUs, 0.0);
                EXPECT_DOUBLE_EQ(u.measureUs, 0.0);
                EXPECT_EQ(u.coresUsed, 0);
                EXPECT_EQ(u.seed, 7u);
            }
            EXPECT_EQ(plan.stages[row.source].opts.label(),
                      row.walk.source.label());
            if (row.walk.applied) {
                EXPECT_EQ(plan.stages[row.applied].opts.label(),
                          row.walk.applied->label());
            }
        }
    }
    EXPECT_EQ(next, plan.stages.size());
}

TEST(SweepRunner, ParallelRowsMatchSerial)
{
    ASSERT_NO_FATAL_FAILURE(warmProfileCache());
    std::vector<workloads::WorkloadPtr> wls = twoWorkloads();
    const PaperPlan plan = fastPlan(wls, twoPlatforms());

    SweepRunner::Params serial;
    serial.jobs = 1;
    util::Result<std::vector<PaperTable>> a = runTables(serial, plan);
    ASSERT_TRUE(a.ok()) << a.status().toString();

    SweepRunner::Params parallel;
    parallel.jobs = 4;
    util::Result<std::vector<PaperTable>> b = runTables(parallel, plan);
    ASSERT_TRUE(b.ok()) << b.status().toString();

    ASSERT_EQ(a->size(), plan.tables.size());
    expectSameRows(*a, *b);
}

TEST(SweepRunner, MergedTelemetryIsDeterministic)
{
    ASSERT_NO_FATAL_FAILURE(warmProfileCache());
    std::vector<workloads::WorkloadPtr> wls = twoWorkloads();
    const PaperPlan plan = fastPlan(wls, twoPlatforms());

    obs::MetricRegistry serial_reg;
    SweepRunner::Params serial;
    serial.jobs = 1;
    serial.registry = &serial_reg;
    ASSERT_TRUE(runTables(serial, plan).ok());

    obs::MetricRegistry parallel_reg;
    SweepRunner::Params parallel;
    parallel.jobs = 4;
    parallel.registry = &parallel_reg;
    ASSERT_TRUE(runTables(parallel, plan).ok());

    // Merge-after-join in stage order: the exporters must not be able
    // to tell the two runs apart, byte for byte.  (Span stats carry
    // wall time, so they stay out of this comparison — and the
    // sampler's obs.self.overhead_ns counter and the runner's sweep.*
    // worker gauges are wall-clock-valued by design, so they are
    // zeroed on both sides the same way span stats are excluded.)
    for (obs::MetricRegistry *reg : {&serial_reg, &parallel_reg}) {
        reg->counter(obs::kSelfOverheadCounter).reset();
        for (const char *g : {"sweep.workers", "sweep.wall_ns",
                              "sweep.busy_ns", "sweep.worker_utilization"})
            reg->setGauge(g, 0.0);
    }
    EXPECT_EQ(obs::exportJson(serial_reg, nullptr),
              obs::exportJson(parallel_reg, nullptr));
    EXPECT_EQ(obs::exportCsv(serial_reg), obs::exportCsv(parallel_reg));
}

TEST(SweepRunner, ResultCacheSkipsResimulation)
{
    ASSERT_NO_FATAL_FAILURE(warmProfileCache());
    std::vector<workloads::WorkloadPtr> wls = twoWorkloads();
    const PaperPlan plan = fastPlan(wls, twoPlatforms());

    ResultCache cache;
    SweepRunner::Params sp;
    sp.cache = &cache;

    obs::SpanTracker::global().reset();
    util::Result<std::vector<PaperTable>> cold = runTables(sp, plan);
    ASSERT_TRUE(cold.ok()) << cold.status().toString();
    EXPECT_GT(simulateSpanCount(), 0u);

    const ResultCache::Stats after_cold = cache.stats();
    EXPECT_EQ(after_cold.hits, 0u);
    EXPECT_GT(after_cold.misses, 0u);
    EXPECT_EQ(cache.size(), after_cold.misses);

    // Warm run: every stage is served from the cache, so the simulate
    // span never opens and the miss count does not move.
    obs::SpanTracker::global().reset();
    util::Result<std::vector<PaperTable>> warm = runTables(sp, plan);
    ASSERT_TRUE(warm.ok()) << warm.status().toString();
    EXPECT_EQ(simulateSpanCount(), 0u);

    const ResultCache::Stats after_warm = cache.stats();
    EXPECT_EQ(after_warm.misses, after_cold.misses);
    EXPECT_EQ(after_warm.hits, after_cold.misses);

    expectSameRows(*cold, *warm);
}

TEST(SweepRunner, SharedSourceStageSimulatesOnce)
{
    ASSERT_NO_FATAL_FAILURE(warmProfileCache());
    std::vector<workloads::WorkloadPtr> wls;
    wls.push_back(workloads::findWorkload("isx").take());
    const std::vector<platforms::Platform> knl = {platforms::knl()};
    const PaperPlan plan = fastPlan(wls, knl);
    ASSERT_EQ(plan.tables.size(), 1u);

    // Table IV on knl tries both 4-way HT and the L2 prefetch on top of
    // the vect + 2-way HT state: one stage is the source of two rows.
    std::map<size_t, int> sourced;
    for (const PaperPlan::Row &row : plan.tables[0].rows)
        ++sourced[row.source];
    size_t shared = plan.stages.size();
    for (const auto &[stage, rows] : sourced) {
        if (rows >= 2)
            shared = stage;
    }
    ASSERT_LT(shared, plan.stages.size());
    const std::string label = plan.stages[shared].opts.label();

    ResultCache cache;
    SweepRunner::Params sp;
    sp.cache = &cache;
    obs::SpanTracker::global().reset();
    const std::vector<SweepRunner::StageOutcome> outcomes =
        SweepRunner(sp).runStages(plan.stages);

    // Every planned stage simulates once (its stage[...]/simulate span
    // opens once); the shared one is no exception, and it looks the
    // cache up once.
    uint64_t simulations = 0, shared_simulations = 0;
    for (const obs::SpanTracker::Stat &st :
         obs::SpanTracker::global().stats()) {
        if (!st.path.ends_with("]/simulate"))
            continue;
        simulations += st.count;
        if (st.path == "stage[" + label + "]/simulate")
            shared_simulations += st.count;
    }
    EXPECT_EQ(simulations, plan.stages.size());
    EXPECT_EQ(shared_simulations, 1u);
    EXPECT_EQ(outcomes[shared].cache.misses, 1u);
    EXPECT_EQ(outcomes[shared].cache.hits, 0u);
    EXPECT_EQ(cache.stats().misses, plan.stages.size());
    EXPECT_EQ(cache.stats().hits, 0u);

    // Both rows read the one stage's analysis.
    util::Result<std::vector<PaperTable>> tables =
        assemblePaperTables(plan, outcomes);
    ASSERT_TRUE(tables.ok()) << tables.status().toString();
    const std::vector<TableRow> &rows = tables->front().rows;
    ASSERT_EQ(rows.size(), plan.tables[0].rows.size());
    int reads = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        if (plan.tables[0].rows[i].source != shared)
            continue;
        ++reads;
        EXPECT_EQ(rows[i].source, label);
        EXPECT_DOUBLE_EQ(rows[i].nAvg,
                         outcomes[shared].metrics.analysis.nAvg);
    }
    EXPECT_EQ(reads, sourced[shared]);
}

TEST(SweepRunner, UnsupportedSmtFailsOnlyItsUnit)
{
    // skl runs two SMT ways; a 4-way request is a bad input for that
    // unit alone, not an assertion that ends the process.
    ASSERT_NO_FATAL_FAILURE(warmProfileCache());
    const workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    SweepRunner::StageUnit base{platforms::skl(), isx.get(), {}, 5.0, 10.0,
                                6};
    SweepRunner::StageUnit smt4 = base;
    smt4.opts = OptSet{Opt::Smt4};
    const std::vector<SweepRunner::StageOutcome> out =
        SweepRunner({}).runStages({smt4, base});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].status.code(), util::ErrorCode::FailedPrecondition);
    EXPECT_NE(out[0].status.message().find("stage unit skl/isx"),
              std::string::npos)
        << out[0].status.toString();
    EXPECT_NE(out[0].status.message().find("SMT ways unsupported"),
              std::string::npos)
        << out[0].status.toString();
    EXPECT_TRUE(out[1].status.ok()) << out[1].status.toString();
    EXPECT_GT(out[1].metrics.throughput, 0.0);
}

TEST(SweepRunner, VacuousUnitIsRefusedBeforeAnyProfileLoads)
{
    // A vacuous knl unit (one core, LLL-LINT-102) beside a good skl
    // unit, with knl's profile corrupt: admission refuses the knl unit
    // before any profile loads, so it reports the static refusal and
    // not the corrupt data, and nothing is characterized.
    struct ProfileDir
    {
        std::string dir = ::testing::TempDir() + "lll_sweep_admission";
        const char *old = std::getenv("LLL_PROFILE_DIR");
        std::string oldDir = old ? old : "";
        ProfileDir()
        {
            std::filesystem::remove_all(dir);
            std::filesystem::create_directories(dir);
            ::setenv("LLL_PROFILE_DIR", dir.c_str(), 1);
        }
        ~ProfileDir()
        {
            if (old)
                ::setenv("LLL_PROFILE_DIR", oldDir.c_str(), 1);
            else
                ::unsetenv("LLL_PROFILE_DIR");
            std::filesystem::remove_all(dir);
        }
    } profile_dir;
    const platforms::Platform skl = platforms::skl();
    const platforms::Platform knl = platforms::knl();
    ASSERT_TRUE(test::syntheticProfile("skl", skl.peakGBs)
                    .save(xmem::defaultProfilePath(skl))
                    .ok());
    {
        std::ofstream out(xmem::defaultProfilePath(knl));
        out << "platform knl\npeak_gbs 100\npoint 10";
    }
    const workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    const xmem::ProfileStore::Stats before =
        xmem::ProfileStore::global().stats();
    const std::vector<SweepRunner::StageOutcome> out =
        SweepRunner({}).runStages({{knl, isx.get(), {}, 5.0, 10.0, 1},
                                   {skl, isx.get(), {}, 5.0, 10.0, 6}});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].status.code(), util::ErrorCode::FailedPrecondition)
        << out[0].status.toString();
    EXPECT_NE(out[0].status.message().find("LLL-LINT-102"),
              std::string::npos)
        << out[0].status.toString();
    EXPECT_TRUE(out[1].status.ok()) << out[1].status.toString();
    EXPECT_GT(out[1].metrics.throughput, 0.0);
    EXPECT_EQ(xmem::ProfileStore::global().stats().measured,
              before.measured);
}

/** @p u admitted; fails the test when admission refuses it. */
AdmittedStage
admitted(const SweepRunner::StageUnit &u)
{
    util::Result<AdmittedStage> a = admitStage(u);
    EXPECT_TRUE(a.ok()) << a.status().toString();
    return a.ok() ? a.take() : AdmittedStage{};
}

/** @p reg's analyzer.variant.* gauges by name. */
std::map<std::string, double>
variantGauges(const obs::MetricRegistry &reg)
{
    std::map<std::string, double> out;
    for (const auto &[name, g] : reg.gauges()) {
        if (name.starts_with("analyzer.variant."))
            out[name] = g.read();
    }
    return out;
}

TEST(SweepRunner, ProfileOfAnotherPlatformFailsEachUnitInItsOwnContext)
{
    // knl's profile handed over for skl: every skl unit is refused with
    // its own workload in the context, and none looks the cache up.
    const workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    const workloads::WorkloadPtr hpcg =
        workloads::findWorkload("hpcg").take();
    const platforms::Platform skl = platforms::skl();
    const std::vector<AdmittedStage> stages = {
        admitted({skl, isx.get(), {}, 5.0, 10.0, 6}),
        admitted({skl, hpcg.get(), {}, 5.0, 10.0, 6}),
    };
    SweepRunner::Profiles profiles;
    profiles.emplace("skl", test::syntheticProfile(
                                "knl", platforms::knl().peakGBs));
    ResultCache cache;
    SweepRunner::Params sp;
    sp.cache = &cache;
    const std::vector<SweepRunner::StageOutcome> out =
        SweepRunner(sp).runAdmitted(stages, profiles);
    ASSERT_EQ(out.size(), 2u);
    for (size_t i = 0; i < out.size(); ++i) {
        const std::string w = stages[i].workload->name();
        EXPECT_EQ(out[i].status.code(),
                  util::ErrorCode::FailedPrecondition);
        EXPECT_EQ(out[i].status.message(),
                  "stage unit skl/" + w + ": experiment '" + w +
                      "' on 'skl': profile is for 'knl' but platform "
                      "is 'skl'");
        EXPECT_EQ(out[i].cache.hits + out[i].cache.misses, 0u);
    }
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(SweepRunner, WarmStageIsTheSameFromTheProbeAndFromTheRun)
{
    ASSERT_NO_FATAL_FAILURE(warmProfileCache());
    const workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    const AdmittedStage s =
        admitted({platforms::skl(), isx.get(), {}, 5.0, 10.0, 6});
    ResultCache cache;
    SweepRunner::Params sp;
    sp.cache = &cache;
    ASSERT_TRUE(SweepRunner(sp).runAdmitted({s})[0].status.ok());

    obs::MetricRegistry probe_reg, run_reg;
    sp.registry = &probe_reg;
    const std::optional<std::vector<SweepRunner::StageOutcome>> probed =
        SweepRunner(sp).probeAdmitted({s});
    sp.registry = &run_reg;
    const std::vector<SweepRunner::StageOutcome> ran =
        SweepRunner(sp).runAdmitted({s});
    ASSERT_TRUE(probed.has_value());
    ASSERT_EQ(probed->size(), 1u);
    ASSERT_EQ(ran.size(), 1u);
    for (const SweepRunner::StageOutcome &o : {probed->front(), ran[0]}) {
        ASSERT_TRUE(o.status.ok()) << o.status.toString();
        EXPECT_EQ(o.cache.hits, 1u);
        EXPECT_EQ(o.cache.misses, 0u);
    }
    EXPECT_EQ(stageMetricsJson(probed->front().metrics, s.stageKey),
              stageMetricsJson(ran[0].metrics, s.stageKey));
    EXPECT_FALSE(variantGauges(probe_reg).empty());
    EXPECT_EQ(variantGauges(probe_reg), variantGauges(run_reg));
}

TEST(SweepRunner, WarmRunOpensItsStageSpanAndDoesNotSimulate)
{
    ASSERT_NO_FATAL_FAILURE(warmProfileCache());
    const workloads::WorkloadPtr isx = workloads::findWorkload("isx").take();
    const AdmittedStage s = admitted(
        {platforms::skl(), isx.get(), OptSet{Opt::Vectorize}, 5.0, 10.0, 6});
    ResultCache cache;
    SweepRunner::Params sp;
    sp.cache = &cache;
    ASSERT_TRUE(SweepRunner(sp).runAdmitted({s})[0].status.ok());

    obs::SpanTracker::global().reset();
    ASSERT_TRUE(SweepRunner(sp).runAdmitted({s})[0].status.ok());
    uint64_t stage_spans = 0;
    for (const obs::SpanTracker::Stat &st :
         obs::SpanTracker::global().stats()) {
        if (st.path == "stage[" + s.opts.label() + "]")
            stage_spans += st.count;
    }
    EXPECT_EQ(stage_spans, 1u);
    EXPECT_EQ(simulateSpanCount(), 0u);
}

TEST(PaperPlan, AssemblerReturnsFirstFailingStageInPlanOrder)
{
    std::vector<workloads::WorkloadPtr> wls = twoWorkloads();
    const PaperPlan plan = fastPlan(wls, twoPlatforms());
    ASSERT_GT(plan.stages.size(), 5u);
    std::vector<SweepRunner::StageOutcome> outcomes(plan.stages.size());
    for (SweepRunner::StageOutcome &o : outcomes)
        o.metrics.throughput = 1.0;
    // Later in plan order but listed first here: order is the plan's.
    outcomes[5].status = util::Status::error(util::ErrorCode::Internal,
                                             "stage five failed");
    outcomes[2].status = util::Status::error(
        util::ErrorCode::CorruptData, "profile for 'skl': bad");
    util::Result<std::vector<PaperTable>> tables =
        assemblePaperTables(plan, outcomes);
    ASSERT_FALSE(tables.ok());
    EXPECT_EQ(tables.status().code(), util::ErrorCode::CorruptData);
    EXPECT_EQ(tables.status().message(), "sweep: profile for 'skl': bad");

    outcomes[2].status = util::Status::okStatus();
    tables = assemblePaperTables(plan, outcomes);
    ASSERT_FALSE(tables.ok());
    EXPECT_EQ(tables.status().code(), util::ErrorCode::Internal);

    outcomes[5].status = util::Status::okStatus();
    tables = assemblePaperTables(plan, outcomes);
    ASSERT_TRUE(tables.ok()) << tables.status().toString();
    EXPECT_EQ(tables->size(), plan.tables.size());
}

TEST(ResultCache, SpillJsonRoundTrips)
{
    const StageMetrics m = distinctiveMetrics();
    const std::string text = stageMetricsJson(m, "key-1");

    util::Result<StageMetrics> parsed =
        parseStageMetricsJson(text, "key-1");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const StageMetrics &p = *parsed;

    EXPECT_EQ(p.label, m.label);
    EXPECT_EQ(p.opts.label(), m.opts.label());
    EXPECT_DOUBLE_EQ(p.throughput, m.throughput);
    EXPECT_DOUBLE_EQ(p.run.measureSeconds, m.run.measureSeconds);
    EXPECT_DOUBLE_EQ(p.run.totalGBs, m.run.totalGBs);
    EXPECT_EQ(p.run.opsIssued, m.run.opsIssued);
    EXPECT_DOUBLE_EQ(p.run.avgMemLatencyNs, m.run.avgMemLatencyNs);
    EXPECT_EQ(p.run.l1FullStalls, m.run.l1FullStalls);
    EXPECT_EQ(p.run.eventsProcessed, m.run.eventsProcessed);
    EXPECT_EQ(p.profile.routine, m.profile.routine);
    EXPECT_DOUBLE_EQ(p.profile.demandFraction,
                     m.profile.demandFraction);
    EXPECT_TRUE(p.profile.demandFractionKnown);
    EXPECT_EQ(p.analysis.platform, m.analysis.platform);
    EXPECT_DOUBLE_EQ(p.analysis.nAvg, m.analysis.nAvg);
    EXPECT_EQ(p.analysis.accessClass, m.analysis.accessClass);
    EXPECT_EQ(p.analysis.limitingLevel, m.analysis.limitingLevel);
    EXPECT_EQ(p.analysis.limitingMshrs, m.analysis.limitingMshrs);
    EXPECT_TRUE(p.analysis.nearMshrLimit);
    EXPECT_EQ(p.analysis.activeStreams, m.analysis.activeStreams);
    EXPECT_TRUE(p.analysis.activeStreamsKnown);
    EXPECT_EQ(p.analysis.coresUsed, m.analysis.coresUsed);
    EXPECT_EQ(p.analysis.warnings, m.analysis.warnings);

    // Serialize-parse-serialize is a fixed point: the spill format
    // loses nothing (%.17g doubles).
    EXPECT_EQ(stageMetricsJson(p, "key-1"), text);
}

TEST(ResultCache, SpillJsonRejectsMismatchAndCorruption)
{
    const StageMetrics m = distinctiveMetrics();
    const std::string text = stageMetricsJson(m, "key-1");

    util::Result<StageMetrics> wrong_key =
        parseStageMetricsJson(text, "key-2");
    ASSERT_FALSE(wrong_key.ok());
    EXPECT_EQ(wrong_key.status().code(),
              util::ErrorCode::FailedPrecondition);

    std::string wrong_version = text;
    wrong_version.replace(wrong_version.find("\"version\": 3"),
                          std::string("\"version\": 3").size(),
                          "\"version\": 99");
    util::Result<StageMetrics> bad_version =
        parseStageMetricsJson(wrong_version, "key-1");
    ASSERT_FALSE(bad_version.ok());
    EXPECT_EQ(bad_version.status().code(),
              util::ErrorCode::FailedPrecondition);

    util::Result<StageMetrics> truncated =
        parseStageMetricsJson(text.substr(0, text.size() / 2), "key-1");
    EXPECT_FALSE(truncated.ok());

    util::Result<StageMetrics> garbage =
        parseStageMetricsJson("not json at all", "key-1");
    ASSERT_FALSE(garbage.ok());
    EXPECT_EQ(garbage.status().code(), util::ErrorCode::CorruptData);
}

/** @p text with the value of top-level field @p field replaced. */
std::string
withField(std::string text, const std::string &field,
          const std::string &value)
{
    const std::string tag = "\"" + field + "\": ";
    const size_t at = text.find(tag);
    EXPECT_NE(at, std::string::npos) << field;
    const size_t from = at + tag.size();
    text.replace(from, text.find(",\n", from) - from, value);
    return text;
}

TEST(ResultCache, SpillJsonRejectsMalformedFields)
{
    const std::string text =
        stageMetricsJson(distinctiveMetrics(), "key-1");
    ASSERT_TRUE(parseStageMetricsJson(text, "key-1").ok());

    // An integer field must hold an exact non-negative integer.
    for (const char *v : {"1.5", "-3", "1e30", "\"42\""}) {
        util::Result<StageMetrics> r = parseStageMetricsJson(
            withField(text, "run.ops_issued", v), "key-1");
        ASSERT_FALSE(r.ok()) << v;
        EXPECT_EQ(r.status().code(), util::ErrorCode::CorruptData) << v;
        EXPECT_NE(r.status().message().find("run.ops_issued"),
                  std::string::npos) << r.status().toString();
    }
    EXPECT_TRUE(parseStageMetricsJson(
                    withField(text, "run.ops_issued", "7e2"), "key-1")
                    .ok());

    // A narrower integer must fit its own type: 2^32 + 1 in an int or
    // unsigned field is corrupt, never truncated to 1.
    for (const char *field : {"analysis.cores_used",
                              "analysis.limiting_mshrs",
                              "analysis.active_streams"}) {
        for (const char *v : {"4294967297", "4294967296"}) {
            util::Result<StageMetrics> r = parseStageMetricsJson(
                withField(text, field, v), "key-1");
            ASSERT_FALSE(r.ok()) << field << " = " << v;
            EXPECT_EQ(r.status().code(), util::ErrorCode::CorruptData);
            EXPECT_NE(r.status().message().find(field),
                      std::string::npos) << r.status().toString();
        }
    }

    // Wrong types are malformed; a dropped field is missing.
    for (const auto &[field, v] :
         std::vector<std::pair<std::string, std::string>>{
             {"throughput", "\"fast\""},
             {"profile.demand_fraction_known", "1"},
             {"label", "3"}}) {
        util::Result<StageMetrics> r =
            parseStageMetricsJson(withField(text, field, v), "key-1");
        ASSERT_FALSE(r.ok()) << field;
        EXPECT_EQ(r.status().code(), util::ErrorCode::CorruptData);
    }
    std::string dropped = text;
    const size_t at = dropped.find("  \"run.read_gbs\"");
    dropped.erase(at, dropped.find('\n', at) + 1 - at);
    util::Result<StageMetrics> missing =
        parseStageMetricsJson(dropped, "key-1");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), util::ErrorCode::CorruptData);
    EXPECT_NE(missing.status().message().find("missing field"),
              std::string::npos);

    util::Result<StageMetrics> not_object =
        parseStageMetricsJson("[1, 2]", "key-1");
    ASSERT_FALSE(not_object.ok());
    EXPECT_EQ(not_object.status().code(), util::ErrorCode::CorruptData);
}

TEST(ResultCache, DiskSpillServesAFreshCache)
{
    const std::string dir =
        ::testing::TempDir() + "lll_sweep_spill_test";
    std::filesystem::remove_all(dir);

    const StageMetrics m = distinctiveMetrics();
    ResultCache writer;
    ASSERT_TRUE(writer.setSpillDir(dir).ok());
    writer.insert("key-1", m);
    EXPECT_EQ(writer.stats().spills, 1u);

    // A different cache instance (a second process, in effect) finds
    // the entry on disk without ever simulating.
    ResultCache reader;
    ASSERT_TRUE(reader.setSpillDir(dir).ok());
    StageMetrics out;
    ASSERT_TRUE(reader.lookup("key-1", &out));
    EXPECT_EQ(out.label, m.label);
    EXPECT_DOUBLE_EQ(out.throughput, m.throughput);
    EXPECT_EQ(reader.stats().hits, 1u);
    EXPECT_EQ(reader.stats().diskLoads, 1u);

    // Unknown keys are misses even with a spill dir.
    EXPECT_FALSE(reader.lookup("key-2", &out));
    EXPECT_EQ(reader.stats().misses, 1u);

    std::filesystem::remove_all(dir);
}

TEST(ResultCache, CorruptSpillFileIsAMissNotAnError)
{
    const std::string dir =
        ::testing::TempDir() + "lll_sweep_corrupt_test";
    std::filesystem::remove_all(dir);

    ResultCache writer;
    ASSERT_TRUE(writer.setSpillDir(dir).ok());
    writer.insert("key-1", distinctiveMetrics());

    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ofstream out(entry.path(),
                          std::ios::out | std::ios::trunc);
        out << "{ \"version\": definitely not valid\n";
    }

    ResultCache reader;
    ASSERT_TRUE(reader.setSpillDir(dir).ok());
    StageMetrics out;
    EXPECT_FALSE(reader.lookup("key-1", &out));
    EXPECT_EQ(reader.stats().misses, 1u);

    std::filesystem::remove_all(dir);
}

TEST(HashKernelSpec, StableAndFieldSensitive)
{
    sim::KernelSpec a = test::randomKernel(64, 2.0);
    sim::KernelSpec b = test::randomKernel(64, 2.0);
    EXPECT_EQ(hashKernelSpec(a), hashKernelSpec(b));

    sim::KernelSpec wider = test::randomKernel(65, 2.0);
    EXPECT_NE(hashKernelSpec(a), hashKernelSpec(wider));

    sim::KernelSpec busier = test::randomKernel(64, 2.5);
    EXPECT_NE(hashKernelSpec(a), hashKernelSpec(busier));

    sim::KernelSpec more_streams = a;
    more_streams.streams.push_back(a.streams.front());
    EXPECT_NE(hashKernelSpec(a), hashKernelSpec(more_streams));
}

/** One line per stock workload x platform x paper variant: the spec
 *  hash and the stage key at the workload's windows, seed 7 and every
 *  core.  Both are on-disk formats (spill files store the key and are
 *  named by its hash), so a refactor must leave every line alone. */
std::string
stageKeysReport()
{
    std::string out;
    for (const workloads::WorkloadPtr &w : workloads::allWorkloads()) {
        for (const platforms::Platform &p : platforms::allPlatforms()) {
            std::vector<OptSet> variants{OptSet{}};
            for (const workloads::ExperimentRow &row : w->paperRows(p)) {
                variants.push_back(row.source);
                if (row.applied)
                    variants.push_back(*row.applied);
            }
            std::set<std::string> seen;
            for (const OptSet &opts : variants) {
                if (!seen.insert(opts.label()).second)
                    continue;
                const sim::KernelSpec spec = w->spec(p, opts);
                char hash[24];
                std::snprintf(hash, sizeof(hash), "%016llx",
                              static_cast<unsigned long long>(
                                  hashKernelSpec(spec)));
                out += w->name() + " " + p.name + " [" + opts.label() +
                       "] hash=" + hash + " key=" +
                       ResultCache::stageKey(p, spec, opts, 7,
                                             w->warmupUs(),
                                             w->measureUs(),
                                             p.totalCores) +
                       "\n";
            }
        }
    }
    return out;
}

TEST(ResultCache, StageKeysMatchTheGolden)
{
    const std::string path =
        std::string(LLL_TEST_GOLDEN_DIR) + "/stage_keys.ref";
    std::ifstream in(path, std::ios::binary);
    std::ostringstream want;
    want << in.rdbuf();
    const std::string got = stageKeysReport();
    if (got != want.str())
        std::ofstream("stage_keys.actual", std::ios::binary) << got;
    ASSERT_TRUE(in.good()) << "missing " << path;
    EXPECT_EQ(got, want.str())
        << "a spec hash or stage key moved; fresh report written to "
           "stage_keys.actual in the test's working directory";
}

TEST(StageDataJson, BytesArePinned)
{
    // `lll analyze --json` and every serve response carry this object;
    // its member names, order and digits are the wire format.
    EXPECT_EQ(service::stageDataJson(distinctiveMetrics(), "skl", "isx",
                                     "vect"),
              "{\"platform\": \"skl\", \"workload\": \"isx\", "
              "\"opts\": \"vect\", \"throughput\": 123500000, "
              "\"bw_gbs\": 98.75, \"pct_peak\": 0.77149999999999996, "
              "\"latency_ns\": 231.0625, \"n_avg\": 8.921875, "
              "\"access_class\": \"random\", \"limiting_level\": "
              "\"L1\", \"limiting_mshrs\": 10, \"headroom\": 1.078125, "
              "\"max_achievable_gbs\": 0, \"cores_used\": 6, "
              "\"warnings\": [\"first warning\", \"second "
              "\\\"quoted\\\" one\", \"a \\\"q\\\" \\\\ "
              "b\\r\\u0001 end\"]}");
}

TEST(ResultCache, StageKeyCoversEveryInput)
{
    const platforms::Platform skl = platforms::skl();
    const platforms::Platform knl = platforms::knl();
    const sim::KernelSpec spec = test::randomKernel(64, 2.0);
    const std::string base =
        ResultCache::stageKey(skl, spec, OptSet{}, 7, 5.0, 10.0, 6);

    EXPECT_EQ(base, ResultCache::stageKey(skl, spec, OptSet{}, 7, 5.0,
                                          10.0, 6));
    EXPECT_NE(base, ResultCache::stageKey(knl, spec, OptSet{}, 7, 5.0,
                                          10.0, 6));
    EXPECT_NE(base,
              ResultCache::stageKey(skl, spec,
                                    OptSet{}.with(Opt::Vectorize), 7,
                                    5.0, 10.0, 6));
    EXPECT_NE(base, ResultCache::stageKey(skl, spec, OptSet{}, 8, 5.0,
                                          10.0, 6));
    EXPECT_NE(base, ResultCache::stageKey(skl, spec, OptSet{}, 7, 6.0,
                                          10.0, 6));
    EXPECT_NE(base, ResultCache::stageKey(skl, spec, OptSet{}, 7, 5.0,
                                          11.0, 6));
    EXPECT_NE(base, ResultCache::stageKey(skl, spec, OptSet{}, 7, 5.0,
                                          10.0, 8));
}

TEST(ResultCache, StageKeySpellingIsPinned)
{
    // Spill files store the key and are named by its hash, so its
    // spelling is part of the on-disk format.
    const platforms::Platform skl = platforms::skl();
    const platforms::Platform a64fx = platforms::a64fx();
    const workloads::WorkloadPtr isx = workloads::makeIsx();
    EXPECT_EQ(ResultCache::stageKey(skl, isx->spec(skl, OptSet{}),
                                    OptSet{}, 7, 15.0, 40.0, 24),
              "skl|spec:4dca9198d47dea24|opts:|seed:7|warmup:15"
              "|measure:40|cores:24");
    const OptSet all = OptSet{}
                           .with(Opt::Vectorize)
                           .with(Opt::Smt2)
                           .with(Opt::SwPrefetchL2)
                           .with(Opt::Tiling)
                           .with(Opt::UnrollJam)
                           .with(Opt::Fusion)
                           .with(Opt::Distribution);
    EXPECT_EQ(ResultCache::stageKey(
                  a64fx, isx->spec(a64fx, OptSet{}.with(Opt::Vectorize)),
                  all, UINT64_MAX, 0.1, 1e-5, 4),
              "a64fx|spec:bc580c2b5aa18dc5|opts:vect 2-ht l2-pref "
              "tiling unroll-jam fusion distr|seed:18446744073709551615"
              "|warmup:0.10000000000000001"
              "|measure:1.0000000000000001e-05|cores:4");
}

TEST(ResultCache, LruCapEvictsLeastRecentlyUsed)
{
    const StageMetrics m = distinctiveMetrics();
    ResultCache cache;
    cache.setMaxEntries(2);
    cache.insert("k1", m);
    cache.insert("k2", m);
    EXPECT_EQ(cache.size(), 2u);

    // Touch k1 so k2 becomes the least recently used...
    StageMetrics out;
    ASSERT_TRUE(cache.lookup("k1", &out));

    // ...and the third insert evicts k2, not k1.
    cache.insert("k3", m);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup("k2", &out));
    EXPECT_TRUE(cache.lookup("k1", &out));
    EXPECT_TRUE(cache.lookup("k3", &out));

    // Shrinking below the current size evicts immediately; the last
    // lookup made k3 most recent, so k1 goes.
    cache.setMaxEntries(1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_FALSE(cache.lookup("k1", &out));
    EXPECT_TRUE(cache.lookup("k3", &out));
}

TEST(ResultCache, LruEvictionIsMemoryOnlySpillStaysReloadable)
{
    const std::string dir =
        ::testing::TempDir() + "lll_sweep_lru_spill_test";
    std::filesystem::remove_all(dir);

    ResultCache cache;
    cache.setMaxEntries(1);
    ASSERT_TRUE(cache.setSpillDir(dir).ok());
    cache.insert("k1", distinctiveMetrics());
    cache.insert("k2", distinctiveMetrics());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // k1 left memory but not disk: the lookup is a hit via disk load.
    StageMetrics out;
    ASSERT_TRUE(cache.lookup("k1", &out));
    EXPECT_EQ(cache.stats().diskLoads, 1u);

    std::filesystem::remove_all(dir);
}

/** The single .json file under @p dir not already in @p known. */
std::filesystem::path
newestSpillFile(const std::string &dir,
                const std::vector<std::filesystem::path> &known)
{
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (std::find(known.begin(), known.end(), entry.path()) ==
            known.end()) {
            return entry.path();
        }
    }
    return {};
}

TEST(ResultCache, SpillBudgetGcRemovesOldestFirst)
{
    const std::string dir =
        ::testing::TempDir() + "lll_sweep_gc_test";
    std::filesystem::remove_all(dir);

    ResultCache writer;
    ASSERT_TRUE(writer.setSpillDir(dir).ok());
    writer.insert("k1", distinctiveMetrics());
    const std::filesystem::path f1 = newestSpillFile(dir, {});
    writer.insert("k2", distinctiveMetrics());
    const std::filesystem::path f2 = newestSpillFile(dir, {f1});
    ASSERT_FALSE(f1.empty());
    ASSERT_FALSE(f2.empty());

    // Make the age order unambiguous: f1 is two hours older.
    const auto now = std::filesystem::last_write_time(f2);
    std::filesystem::last_write_time(
        f1, now - std::chrono::hours(2));

    // A budget of exactly one file forces the GC on attach; the
    // oldest-mtime file (f1) must be the one deleted.
    ResultCache reader;
    reader.setSpillBudget(std::filesystem::file_size(f2));
    ASSERT_TRUE(reader.setSpillDir(dir).ok());
    EXPECT_FALSE(std::filesystem::exists(f1));
    EXPECT_TRUE(std::filesystem::exists(f2));
    EXPECT_EQ(reader.stats().spillEvictions, 1u);
    EXPECT_LE(reader.spillBytes(), reader.spillBudget());

    // The survivor still serves; the GC'd key is now a plain miss.
    StageMetrics out;
    EXPECT_TRUE(reader.lookup("k2", &out));
    EXPECT_FALSE(reader.lookup("k1", &out));

    std::filesystem::remove_all(dir);
}

TEST(ResultCache, SpillBudgetCapsTheDirOnEveryInsert)
{
    const std::string dir =
        ::testing::TempDir() + "lll_sweep_gc_insert_test";
    std::filesystem::remove_all(dir);

    ResultCache cache;
    ASSERT_TRUE(cache.setSpillDir(dir).ok());
    cache.insert("probe", distinctiveMetrics());
    const uint64_t one_file = cache.spillBytes();
    ASSERT_GT(one_file, 0u);

    // Budget two files, insert five: the dir may never exceed budget.
    cache.setSpillBudget(2 * one_file);
    for (int i = 0; i < 5; ++i) {
        cache.insert("k" + std::to_string(i), distinctiveMetrics());
        EXPECT_LE(cache.spillBytes(), cache.spillBudget());
    }
    EXPECT_GE(cache.stats().spillEvictions, 3u);

    std::filesystem::remove_all(dir);
}

TEST(ResultCache, StaleFormatVersionReadsAsMissNotError)
{
    const std::string dir =
        ::testing::TempDir() + "lll_sweep_stale_test";
    std::filesystem::remove_all(dir);

    ResultCache writer;
    ASSERT_TRUE(writer.setSpillDir(dir).ok());
    writer.insert("k1", distinctiveMetrics());

    // Rewrite the spill as the previous on-disk format version.
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path());
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        const std::string current = "\"version\": 3";
        const size_t at = text.find(current);
        ASSERT_NE(at, std::string::npos);
        text.replace(at, current.size(), "\"version\": 2");
        std::ofstream out(entry.path(),
                          std::ios::out | std::ios::trunc);
        out << text;
    }

    ResultCache reader;
    ASSERT_TRUE(reader.setSpillDir(dir).ok());
    StageMetrics out;
    EXPECT_FALSE(reader.lookup("k1", &out));
    EXPECT_EQ(reader.stats().misses, 1u);
    EXPECT_EQ(reader.stats().hits, 0u);

    std::filesystem::remove_all(dir);
}

TEST(SweepRunner, EntryCapHonoredUnderSweepLargerThanCap)
{
    warmProfileCache();
    std::vector<workloads::WorkloadPtr> wls = twoWorkloads();
    const PaperPlan plan = fastPlan(wls, twoPlatforms());

    ResultCache cache;
    cache.setMaxEntries(3);
    SweepRunner::Params sp;
    sp.cache = &cache;
    util::Result<std::vector<PaperTable>> res = runTables(sp, plan);
    ASSERT_TRUE(res.ok()) << res.status().toString();

    // Each table stages several variants, so the sweep saw far more
    // distinct stages than the cap: the table must have been pinned at
    // the cap with the overflow evicted (and counted).
    EXPECT_LE(cache.size(), 3u);
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.maxEntries(), 3u);
}

} // namespace
} // namespace lll::core
