#include "core/experiment.hh"

#include "core/bounds.hh"
#include "core/sweep.hh"
#include "obs/span.hh"
#include "util/logging.hh"

namespace lll::core
{

Experiment::Experiment(const platforms::Platform &platform,
                       const workloads::Workload &workload,
                       xmem::LatencyProfile profile, Params params)
    : platform_(platform), workload_(workload),
      analyzer_(platform, std::move(profile)), params_(params),
      coresUsed_(params.coresUsed > 0 ? params.coresUsed
                                      : platform.totalCores)
{
    analyzer_.setRegistry(params_.registry);
}

util::Result<Experiment>
Experiment::create(const platforms::Platform &platform,
                   const workloads::Workload &workload,
                   xmem::LatencyProfile profile, Params params)
{
    using util::ErrorCode;
    using util::Status;
    LLL_RETURN_IF_ERROR(
        Analyzer::validateInputs(platform, profile)
            .withContext("experiment '%s' on '%s'",
                         workload.name().c_str(), platform.name.c_str()));
    int cores = params.coresUsed > 0 ? params.coresUsed
                                     : platform.totalCores;
    util::Result<sim::SystemParams> sp = platform.trySysParams(cores, 1);
    if (!sp.ok())
        return sp.status().withContext("experiment '%s'",
                                       workload.name().c_str());
    if (params.warmupUs < 0.0 || params.measureUs < 0.0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "experiment '%s': negative window "
                             "(warmup %g us, measure %g us)",
                             workload.name().c_str(), params.warmupUs,
                             params.measureUs);
    }

    // The lint gate: a config the static analyzer calls vacuous
    // (LLL-LINT-102/106) would simulate without error and then corrupt
    // every conclusion drawn from the numbers, so refuse it here the
    // same way `lll lint` flags it.  The base variant decides — the
    // optimization walk only ever starts from it.
    const sim::KernelSpec base_spec =
        workload.spec(platform, workloads::OptSet());
    const SpecBounds b = deriveBounds(*sp, base_spec);
    if (b.vacuous()) {
        if (b.footprintBytes <= b.l1CapacityBytes) {
            return Status::error(
                ErrorCode::FailedPrecondition,
                "experiment '%s' on '%s' is vacuous (LLL-LINT-106): "
                "the %llu-byte footprint fits in the %llu-byte L1, so "
                "the kernel never exercises the memory system; run "
                "`lll lint %s %s` for the full report",
                workload.name().c_str(), platform.name.c_str(),
                static_cast<unsigned long long>(b.footprintBytes),
                static_cast<unsigned long long>(b.l1CapacityBytes),
                workload.name().c_str(), platform.name.c_str());
        }
        return Status::error(
            ErrorCode::FailedPrecondition,
            "experiment '%s' on '%s' with %d cores is vacuous "
            "(LLL-LINT-102): effective MLP %.1f/core sustains at most "
            "%.1f of %.0f GB/s peak (%.1f%%); run `lll lint %s %s` for "
            "the full report",
            workload.name().c_str(), platform.name.c_str(), cores,
            b.effectiveMlpPerCore, b.mlpCeilingGBs, b.peakGBs,
            100.0 * b.mlpCeilingGBs / b.peakGBs, workload.name().c_str(),
            platform.name.c_str());
    }
    return Experiment(platform, workload, std::move(profile), params);
}

util::Result<StageMetrics>
Experiment::stage(const workloads::OptSet &opts, const std::string &cache_key)
{
    const std::string label = opts.label();
    obs::ScopedSpan stage_span("stage[" + label + "]");

    double warmup = params_.warmupUs > 0 ? params_.warmupUs
                                         : workload_.warmupUs();
    double measure = params_.measureUs > 0 ? params_.measureUs
                                           : workload_.measureUs();

    // The cross-experiment memo table: a hit replays the stored
    // StageMetrics — no System, no event queue, no simulate/profile/
    // analyze spans — because the key captures every input the
    // simulation is a pure function of.  With the caller's key a hit
    // builds no KernelSpec at all.
    std::string key;
    if (params_.resultCache) {
        auto own_key = [&] {
            return ResultCache::stageKey(
                platform_, workload_.spec(platform_, opts), opts,
                params_.seed, warmup, measure, coresUsed_);
        };
        key = cache_key.empty() ? own_key() : cache_key;
        LLL_INVARIANT(key == own_key(),
                      "caller's stage key for '%s' is not this stage's",
                      label.c_str());
        StageMetrics cached;
        if (params_.resultCache->lookup(key, &cached, &cacheStats_)) {
            if (params_.registry) {
                params_.registry->setGauge(
                    "analyzer.variant." + label + ".n_avg",
                    cached.analysis.nAvg);
                params_.registry->setGauge(
                    "analyzer.variant." + label + ".bw_gbps",
                    cached.analysis.bwGBs);
            }
            return cached;
        }
    }

    // create() checked the cores at one SMT way; the variant's SMT
    // request is checked here, so an unsupported one fails this unit.
    util::Result<sim::SystemParams> sp =
        platform_.trySysParams(coresUsed_, opts.smtWays());
    if (!sp.ok())
        return sp.status();
    sp->seed = params_.seed;
    const sim::KernelSpec spec = workload_.spec(platform_, opts);
    sim::System sys(*sp, spec);
    if (params_.registry)
        sys.attachObservability(*params_.registry);
    sim::RunResult run;
    {
        obs::ScopedSpan sim_span("simulate");
        util::Result<sim::RunResult> checked =
            sys.runChecked(warmup, measure);
        if (!checked.ok())
            return checked.status();
        run = checked.take();
    }

    counters::RoutineProfiler profiler(platform_);
    counters::RoutineProfile profile;
    {
        LLL_SPAN("profile");
        profile = profiler.profile(run, workload_.routine());
    }

    StageMetrics m;
    m.opts = opts;
    m.label = label;
    m.run = run;
    m.profile = profile;
    // Prefetch-to-L2 moves a random routine's outstanding misses into
    // the L2 MSHR queue, so the analysis tracks the limiting level the
    // way the paper reasons about ISx after software prefetching.
    bool random = workload_.randomDominated() &&
                  !opts.has(workloads::Opt::SwPrefetchL2);
    {
        LLL_SPAN("analyze");
        m.analysis = analyzer_.analyze(profile, coresUsed_, random);
    }
    // The analyzer only sees counters; the spec knows how many
    // concurrent streams the routine drives, which the recipe's
    // fusion/distribution dual branches on.
    m.analysis.activeStreams = static_cast<unsigned>(spec.streams.size());
    m.analysis.activeStreamsKnown = true;
    m.throughput = run.throughput;

    if (params_.resultCache)
        params_.resultCache->insert(key, m, &cacheStats_);

    if (params_.registry) {
        params_.registry->setGauge("analyzer.variant." + label + ".n_avg",
                                   m.analysis.nAvg);
        params_.registry->setGauge(
            "analyzer.variant." + label + ".bw_gbps", m.analysis.bwGBs);
    }

    return m;
}

} // namespace lll::core
