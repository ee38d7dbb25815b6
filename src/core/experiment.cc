#include "core/experiment.hh"

#include "core/bounds.hh"
#include "core/sweep.hh"
#include "obs/span.hh"

namespace lll::core
{

util::Result<AdmittedStage>
admitStage(StageUnit unit)
{
    using util::ErrorCode;
    using util::Status;
    AdmittedStage a{std::move(unit), {}, {}};
    const platforms::Platform &platform = a.platform;
    const workloads::Workload &workload = *a.workload;
    auto refuse = [&](const Status &s) {
        return s.withContext("stage unit %s/%s", platform.name.c_str(),
                             workload.name().c_str());
    };

    if (a.coresUsed == 0)
        a.coresUsed = platform.defaultCores();
    if (a.warmupUs == 0.0)
        a.warmupUs = workload.warmupUs();
    if (a.measureUs == 0.0)
        a.measureUs = workload.measureUs();
    util::Result<sim::SystemParams> sp =
        platform.trySysParams(a.coresUsed, a.opts.smtWays());
    if (!sp.ok())
        return refuse(sp.status());
    a.sys = sp.take();
    if (a.warmupUs < 0.0 || a.measureUs < 0.0) {
        return refuse(Status::error(ErrorCode::InvalidArgument,
                                    "negative window (warmup %g us, "
                                    "measure %g us)",
                                    a.warmupUs, a.measureUs));
    }

    // The lint gate: a config the static analyzer calls vacuous
    // (LLL-LINT-102/106) would simulate without error and then corrupt
    // every conclusion drawn from the numbers, so refuse it here the
    // same way `lll lint` flags it.  The base variant, on one SMT way,
    // decides — the optimization walk only ever starts from it.
    sim::SystemParams base_sys = a.sys;
    base_sys.threadsPerCore = 1;
    a.spec = workload.spec(platform, workloads::OptSet());
    const SpecBounds b = deriveBounds(base_sys, a.spec);
    if (b.vacuous()) {
        if (b.footprintBytes <= b.l1CapacityBytes) {
            return refuse(Status::error(
                ErrorCode::FailedPrecondition,
                "experiment '%s' on '%s' is vacuous (LLL-LINT-106): "
                "the %llu-byte footprint fits in the %llu-byte L1, so "
                "the kernel never exercises the memory system",
                workload.name().c_str(), platform.name.c_str(),
                static_cast<unsigned long long>(b.footprintBytes),
                static_cast<unsigned long long>(b.l1CapacityBytes)));
        }
        return refuse(Status::error(
            ErrorCode::FailedPrecondition,
            "experiment '%s' on '%s' with %d cores is vacuous "
            "(LLL-LINT-102): effective MLP %.1f/core sustains at most "
            "%.1f of %.0f GB/s peak (%.1f%%)",
            workload.name().c_str(), platform.name.c_str(), a.coresUsed,
            b.effectiveMlpPerCore, b.mlpCeilingGBs, b.peakGBs,
            100.0 * b.mlpCeilingGBs / b.peakGBs));
    }

    if (!a.opts.empty())
        a.spec = workload.spec(platform, a.opts);
    a.stageKey = ResultCache::stageKey(platform, a.spec, a.opts, a.seed,
                                       a.warmupUs, a.measureUs,
                                       a.coresUsed);
    return a;
}

Experiment::Experiment(const platforms::Platform &platform,
                       const workloads::Workload &workload,
                       xmem::LatencyProfile profile, Params params)
    : workload_(workload), analyzer_(platform, std::move(profile)),
      params_(params)
{
    analyzer_.setRegistry(params_.registry);
}

util::Result<Experiment>
Experiment::create(const platforms::Platform &platform,
                   const workloads::Workload &workload,
                   xmem::LatencyProfile profile, Params params)
{
    LLL_RETURN_IF_ERROR(
        Analyzer::validateInputs(platform, profile)
            .withContext("experiment '%s' on '%s'",
                         workload.name().c_str(), platform.name.c_str()));
    return Experiment(platform, workload, std::move(profile), params);
}

util::Result<StageMetrics>
Experiment::stage(const AdmittedStage &s)
{
    sim::SystemParams sp = s.sys;
    sp.seed = params_.seed;
    sim::System sys(sp, s.spec);
    if (params_.registry)
        sys.attachObservability(*params_.registry);
    StageMetrics m;
    {
        obs::ScopedSpan sim_span("simulate");
        util::Result<sim::RunResult> checked =
            sys.runChecked(s.warmupUs, s.measureUs);
        if (!checked.ok())
            return checked.status();
        m.run = checked.take();
    }
    {
        LLL_SPAN("profile");
        m.profile = counters::RoutineProfiler(analyzer_.platform()).profile(
            m.run, workload_.routine());
    }
    m.opts = s.opts;
    m.label = s.opts.label();
    // Prefetch-to-L2 moves a random routine's outstanding misses into
    // the L2 MSHR queue, so the analysis tracks the limiting level the
    // way the paper reasons about ISx after software prefetching.
    bool random = workload_.randomDominated() &&
                  !s.opts.has(workloads::Opt::SwPrefetchL2);
    {
        LLL_SPAN("analyze");
        m.analysis = analyzer_.analyze(m.profile, s.coresUsed, random);
    }
    // The analyzer only sees counters; the spec knows how many
    // concurrent streams the routine drives, which the recipe's
    // fusion/distribution dual branches on.
    m.analysis.activeStreams = static_cast<unsigned>(s.spec.streams.size());
    m.analysis.activeStreamsKnown = true;
    m.throughput = m.run.throughput;
    return m;
}

} // namespace lll::core
