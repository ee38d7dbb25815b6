/**
 * @file
 * The reproduce phase: every stage of the paper's Tables IV-IX walks
 * (6 workloads x 3 platforms = 18 units) simulated cold, as one closed
 * SweepRunner::runStages batch at 2 jobs with no ResultCache.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "analysis/determinism.hh"
#include "core/analyzer.hh"
#include "core/sweep.hh"
#include "counters/counter_bank.hh"
#include "phases.hh"
#include "platforms/platform.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"
#include "xmem/xmem_harness.hh"

using namespace lll;

namespace perfbench
{

namespace
{

constexpr int kJobs = 2;
/** The simulator seed `lll reproduce` uses; the paper reference and
 *  the stored stage reference are both taken at it. */
constexpr uint64_t kSimSeed = 7;

struct Row
{
    size_t source = 0;  //!< stage index of the row's variant
    size_t applied = 0; //!< stage index of variant + optimization
    double paperSpeedup = 0.0;
};

/** The distinct stages of all 18 walks, plus the rows that compare
 *  them with the paper's speed-ups. */
struct Plan
{
    std::vector<workloads::WorkloadPtr> workloads;
    std::vector<platforms::Platform> platforms;
    std::vector<core::SweepRunner::StageUnit> stages;
    std::vector<Row> rows;
};

std::string
stageName(const core::SweepRunner::StageUnit &u)
{
    return u.platform.name + "/" + u.workload->name() + "/" +
           u.opts.label();
}

Plan
makePlan()
{
    Plan plan;
    plan.workloads = workloads::allWorkloads();
    plan.platforms = platforms::allPlatforms();
    std::map<std::string, size_t> index;
    auto stageOf = [&](const platforms::Platform &p,
                       const workloads::Workload &w,
                       const workloads::OptSet &opts) {
        core::SweepRunner::StageUnit u;
        u.platform = p;
        u.workload = &w;
        u.opts = opts;
        u.seed = kSimSeed;
        const std::string name = stageName(u);
        auto it = index.find(name);
        if (it != index.end())
            return it->second;
        plan.stages.push_back(u);
        return index[name] = plan.stages.size() - 1;
    };
    // Workload-major, like core::sweepUnits and `lll reproduce`.
    for (const workloads::WorkloadPtr &w : plan.workloads) {
        for (const platforms::Platform &p : plan.platforms) {
            for (const workloads::ExperimentRow &er : w->paperRows(p)) {
                const size_t src = stageOf(p, *w, er.source);
                if (!er.applied)
                    continue;
                const size_t app = stageOf(p, *w, *er.applied);
                if (er.paperSpeedup > 0.0)
                    plan.rows.push_back({src, app, er.paperSpeedup});
            }
        }
    }
    return plan;
}

std::string
profileDir(const RunConfig &cfg)
{
    return cfg.workDir + "/profiles-reproduce";
}

constexpr const char *kStagesFile = "reproduce_stages.ref";

std::string
runLine(const std::string &name, const sim::RunResult &r)
{
    std::string line = name;
    char buf[64];
    for (const analysis::Metric &m : analysis::runMetrics(r)) {
        std::snprintf(buf, sizeof(buf), " %s=%.17g", m.name.c_str(),
                      m.value);
        line += buf;
    }
    return line;
}

/** One traced stage: the calls Experiment::stage makes, each under its
 *  own span. */
struct TracedStage
{
    sim::RunResult run;
    double hostRunNs = 0.0;
};

TracedStage
tracedStage(const core::SweepRunner::StageUnit &u,
            const core::Analyzer &analyzer, Tracer *tracer)
{
    Tracer::Scope root(tracer, "core.stage", tracer->newOp());
    const workloads::Workload &w = *u.workload;
    {
        // runStages builds a checked Experiment per stage; its checks
        // are part of the work being traced.
        Tracer::Scope s(tracer, "core.experimentCreate");
        core::Experiment::Params ep;
        ep.seed = u.seed;
        (void)core::Experiment::create(u.platform, w, analyzer.profile(),
                                       ep);
    }
    sim::KernelSpec spec;
    {
        Tracer::Scope s(tracer, "workloads.spec");
        spec = w.spec(u.platform, u.opts);
    }
    sim::SystemParams sp;
    {
        Tracer::Scope s(tracer, "platforms.sysParams");
        sp = u.platform.sysParams(u.platform.defaultCores(),
                                  u.opts.smtWays());
    }
    sp.seed = u.seed;
    TracedStage out;
    std::unique_ptr<sim::System> sys;
    {
        Tracer::Scope s(tracer, "sim.build");
        sys = std::make_unique<sim::System>(sp, spec);
    }
    {
        Tracer::Scope s(tracer, "sim.run");
        const Clock::time_point t0 = Clock::now();
        out.run = sys->run(w.warmupUs(), w.measureUs());
        out.hostRunNs = secondsSince(t0) * 1e9;
    }
    counters::RoutineProfile profile;
    {
        Tracer::Scope s(tracer, "counters.profile");
        profile = counters::RoutineProfiler(u.platform)
                      .profile(out.run, w.routine());
    }
    {
        Tracer::Scope s(tracer, "core.analyze");
        const bool random = w.randomDominated() &&
                            !u.opts.has(workloads::Opt::SwPrefetchL2);
        (void)analyzer.analyze(profile, u.platform.defaultCores(), random);
    }
    return out;
}

/** @p observed: the untraced pass's runLine() per stage. */
void
tracedPass(const Plan &plan, const RunConfig &cfg,
           const std::vector<std::string> &observed, double untracedWallS,
           Tracer *tracer, PhaseOut &out)
{
    std::map<std::string, core::Analyzer> analyzers;
    for (const platforms::Platform &p : plan.platforms) {
        util::Result<xmem::LatencyProfile> prof =
            xmem::XMemHarness().measureCachedChecked(
                p, xmem::defaultProfilePath(p));
        out.books.check(prof.ok(), "trace: profile for " + p.name);
        if (!prof.ok())
            return;
        analyzers.emplace(p.name, core::Analyzer(p, prof.take()));
    }

    const size_t n = plan.stages.size();
    std::vector<TracedStage> traced(n);
    const Clock::time_point t0 = Clock::now();
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next++; i < n; i = next++) {
            const core::SweepRunner::StageUnit &u = plan.stages[i];
            traced[i] = tracedStage(u, analyzers.at(u.platform.name),
                                    tracer);
        }
    };
    std::vector<std::thread> pool;
    for (int j = 0; j < kJobs; ++j)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    const double wallS = secondsSince(t0);

    // The traced calls are the same simulation runStages made, so the
    // statistics must agree exactly with the untraced pass.
    std::vector<std::string> lines;
    double events = 0, dramLines = 0, simUs = 0, runNs = 0;
    double l1h = 0, l1m = 0, l2h = 0, l2m = 0, pfIssued = 0, pfUseful = 0;
    double l1Stalls = 0, l2Stalls = 0, memUtil = 0;
    for (size_t i = 0; i < n; ++i) {
        const sim::RunResult &r = traced[i].run;
        const std::string name = stageName(plan.stages[i]);
        lines.push_back(runLine(name, r));
        out.books.check(lines.back() == observed[i],
                        "trace: stage " + name +
                            " differs from the untraced pass");
        events += r.eventsProcessed;
        dramLines += r.memReadLines + r.memWriteLines;
        simUs += plan.stages[i].workload->warmupUs() +
                 plan.stages[i].workload->measureUs();
        runNs += traced[i].hostRunNs;
        l1h += r.l1DemandHits;
        l1m += r.l1DemandMisses;
        l2h += r.l2DemandHits;
        l2m += r.l2DemandMisses;
        pfIssued += r.hwPrefIssued;
        pfUseful += r.hwPrefUseful;
        l1Stalls += r.l1FullStalls;
        l2Stalls += r.l2FullStalls;
        memUtil += r.memUtilization;
    }

    // Compare each stage's statistics with the stored reference.
    double changed = 0;
    std::ifstream ref(cfg.root + "/perfbench/ref/" + kStagesFile);
    std::set<std::string> known;
    for (std::string l; std::getline(ref, l);)
        known.insert(l);
    for (const std::string &l : lines)
        changed += known.count(l) ? 0 : 1;

    auto sumMs = [&](const char *name) {
        double s = 0;
        for (double ns : tracer->durationsNs(name))
            s += ns;
        return s * 1e-6;
    };
    Metrics &m = out.layer;
    m.set("sim.build_ms", sumMs("sim.build"), "ms");
    m.set("sim.run_ms", sumMs("sim.run"), "ms");
    m.set("sim.events", events, "count");
    m.set("sim.host_ns_per_event", runNs / events, "ns");
    m.set("sim.host_ns_per_dram_line", runNs / dramLines, "ns");
    m.set("sim.sim_us_per_host_s", simUs / (runNs * 1e-9), "us/s");
    m.set("sim.l1_hit_ratio", l1h / (l1h + l1m), "fraction");
    m.set("sim.l2_hit_ratio", l2h / (l2h + l2m), "fraction");
    m.set("sim.hw_pref_useful_ratio", pfUseful / pfIssued, "fraction");
    m.set("sim.l1_full_stalls", l1Stalls, "count");
    m.set("sim.l2_full_stalls", l2Stalls, "count");
    m.set("sim.mem_util", memUtil / n, "fraction");
    m.set("sim.stats_changed_stages", changed, "count");
    m.set("counters.profile_us",
          mean(tracer->durationsNs("counters.profile")) * 1e-3, "us");
    m.set("core.analyze_us",
          mean(tracer->durationsNs("core.analyze")) * 1e-3, "us");
    m.set("trace_overhead_frac.reproduce",
          (wallS - untracedWallS) / untracedWallS, "fraction");
    const std::map<std::string, double> self = tracer->selfSeconds();
    double selfSum = 0;
    for (const auto &[layer, s] : self)
        selfSum += s;
    m.set("trace_coverage.reproduce", selfSum / (wallS * kJobs),
          "fraction");
}

} // namespace

std::string
setupReproduce(const RunConfig &cfg, Books &books)
{
    const std::string dir = profileDir(cfg);
    books.check(copyCommittedProfiles(cfg.root, dir),
                "reproduce: copy committed profiles");
    useProfileStore(dir);
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        util::Result<xmem::LatencyProfile> prof =
            xmem::XMemHarness().measureCachedChecked(
                p, xmem::defaultProfilePath(p));
        books.check(prof.ok(), "reproduce: load profile " + p.name);
    }
    return hashTree(dir);
}

void
runReproduce(const RunConfig &cfg, Tracer *tracer, PhaseOut &out)
{
    useProfileStore(profileDir(cfg));
    const Plan plan = makePlan();

    core::SweepRunner::Params params;
    params.jobs = kJobs;
    core::SweepRunner runner(params);
    const Clock::time_point t0 = Clock::now();
    const std::vector<core::SweepRunner::StageOutcome> outcomes =
        runner.runStages(plan.stages);
    const double wallS = secondsSince(t0);

    // Output checks: every stage ok, bandwidth within the platform peak.
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const core::SweepRunner::StageOutcome &o = outcomes[i];
        const core::SweepRunner::StageUnit &u = plan.stages[i];
        out.books.check(o.status.ok() &&
                            o.metrics.analysis.bwGBs > 0.0 &&
                            o.metrics.analysis.bwGBs <= u.platform.peakGBs,
                        "reproduce: stage " + stageName(u) + ": " +
                            o.status.toString());
    }
    if (!out.books.correct)
        return;

    // Every run leaves its stage statistics beside the reference, so a
    // change that alters simulated numbers can copy them into ref/.
    std::vector<std::string> observed;
    std::ofstream kept(cfg.observedDir + "/" + kStagesFile);
    for (size_t i = 0; i < outcomes.size(); ++i) {
        observed.push_back(
            runLine(stageName(plan.stages[i]), outcomes[i].metrics.run));
        kept << observed.back() << "\n";
    }
    kept.close();
    out.books.check(!kept.fail(), "reproduce: write observed stages");

    double speedupErr = 0;
    for (const Row &r : plan.rows) {
        const double measured = outcomes[r.applied].metrics.throughput /
                                outcomes[r.source].metrics.throughput;
        speedupErr += std::fabs(measured - r.paperSpeedup) / r.paperSpeedup;
    }
    double eq2Err = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const core::StageMetrics &m = outcomes[i].metrics;
        const double trueNavg = m.run.avgMemOutstanding /
                                plan.stages[i].platform.defaultCores();
        eq2Err += std::fabs(m.analysis.nAvg - trueNavg) / trueNavg;
    }
    out.e2e.set("reproduce_wall_s", wallS, "s");
    out.e2e.set("speedup_err", speedupErr / plan.rows.size(), "fraction");
    out.e2e.set("eq2_err", eq2Err / outcomes.size(), "fraction");

    if (!tracer)
        return;
    double busyNs = 0, waitNs = 0;
    for (const core::SweepRunner::StageOutcome &o : outcomes) {
        busyNs += o.simulateNs;
        waitNs += o.queueWaitNs;
    }
    out.layer.set("core.parallel_eff", busyNs / (wallS * 1e9 * kJobs),
                  "fraction");
    out.layer.set("core.queue_wait_ms", waitNs / outcomes.size() * 1e-6,
                  "ms");
    out.layer.set("core.stages", static_cast<double>(outcomes.size()),
                  "count");
    tracedPass(plan, cfg, observed, wallS, tracer, out);
}

} // namespace perfbench
