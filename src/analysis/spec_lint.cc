#include "analysis/spec_lint.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/recipe.hh"
#include "sim/validator.hh"
#include "util/stats.hh"

namespace lll::analysis
{

using util::DiagnosticList;
using workloads::Opt;
using workloads::OptSet;

DiagnosticList
lintSpec(const sim::SystemParams &sys, const sim::KernelSpec &spec,
         const std::string &subject)
{
    DiagnosticList out;
    out.append(sim::lintSystemParams(sys));
    out.append(sim::lintKernelSpec(spec));
    if (out.hasErrors()) {
        // The bounds below divide by quantities the validators just
        // rejected; an infeasible config gets no analytical findings.
        out.setSubjects(subject);
        return out;
    }

    const core::SpecBounds b = core::deriveBounds(sys, spec);

    if (spec.window > sys.lqSize) {
        out.warning("LLL-LINT-101", subject,
                    "kernel exposes window=%u independent loads but the "
                    "load queue holds only %u; exposed MLP is capped "
                    "before any MSHR limit applies",
                    spec.window, sys.lqSize);
    }

    if (b.mlpCeilingGBs < 0.05 * b.peakGBs) {
        out.warning("LLL-LINT-102", subject,
                    "effective MLP %.1f/core sustains at most %.1f GB/s "
                    "(%.1f%% of the %.0f GB/s peak) at idle latency "
                    "%.0f ns; the memory system is barely loaded and "
                    "Little's-law analysis of this config will be "
                    "vacuous",
                    b.effectiveMlpPerCore, b.mlpCeilingGBs,
                    100.0 * b.mlpCeilingGBs / b.peakGBs, b.peakGBs,
                    b.idleLatencyNs);
    }

    if (b.nAvgAtPeakPerCore > b.l2Mshrs) {
        out.warning("LLL-LINT-103", subject,
                    "sustaining the declared peak %.0f GB/s needs "
                    "n_avg %.1f lines in flight per core at idle "
                    "latency %.0f ns, but the L2 MSHRQ holds only %u; "
                    "cores can reach at most %.1f GB/s (loaded latency "
                    "only lowers this)",
                    b.peakGBs, b.nAvgAtPeakPerCore, b.idleLatencyNs,
                    b.l2Mshrs, b.l2CeilingGBs);
    }

    out.note("LLL-LINT-104", subject,
             "stream mix %.0f%% random by weight -> %s; predicted "
             "limiter: %s MSHRQ (n_avg <= %.1f/core, node ceiling "
             "%.1f GB/s)",
             100.0 * b.randomWeight,
             b.randomDominated ? "random-dominated" : "streaming",
             b.randomDominated ? "L1" : "L2", b.effectiveMlpPerCore,
             b.mlpCeilingGBs);

    if (spec.swPrefetchL2) {
        bool any_prefetchable = false;
        for (const sim::StreamDesc &s : spec.streams)
            any_prefetchable |= s.swPrefetchable;
        if (!any_prefetchable) {
            out.warning("LLL-LINT-105", subject,
                        "software L2 prefetch is enabled but no stream "
                        "is marked prefetchable; the optimization is "
                        "vacuous and only pays its overhead");
        }
    }

    const uint64_t footprint_bytes = b.footprintBytes;
    const uint64_t l1_bytes = b.l1CapacityBytes;
    const uint64_t l2_bytes = b.l2CapacityBytes;
    if (footprint_bytes <= l1_bytes) {
        out.warning("LLL-LINT-106", subject,
                    "total stream footprint (%llu B) fits in the L1 "
                    "(%llu B); the kernel never exercises the memory "
                    "system it is meant to characterize",
                    static_cast<unsigned long long>(footprint_bytes),
                    static_cast<unsigned long long>(l1_bytes));
    } else if (footprint_bytes <= l2_bytes) {
        out.note("LLL-LINT-107", subject,
                 "total stream footprint (%llu B) fits in the L2 "
                 "(%llu B); expect cache-resident behaviour, not "
                 "memory-bound behaviour",
                 static_cast<unsigned long long>(footprint_bytes),
                 static_cast<unsigned long long>(l2_bytes));
    }

    out.setSubjects(subject);
    return out;
}

namespace
{

/** All Opt values, in enum order (for reachability accounting). */
constexpr Opt kAllOpts[] = {
    Opt::Vectorize,  Opt::Smt2,      Opt::Smt4,   Opt::SwPrefetchL2,
    Opt::Tiling,     Opt::UnrollJam, Opt::Fusion, Opt::Distribution,
};

} // namespace

DiagnosticList
lintRecipeReachability(const platforms::Platform &platform)
{
    // Probe the decision engine across its whole input space: both
    // bandwidth regimes x both MSHR regimes x both access classes x
    // representative occupancies x stream counts either side of the
    // fusion/distribution dual, from both SMT starting states.  Any
    // recommendation that never fires in this sweep can never fire at
    // runtime either.
    const core::Recipe recipe(platform);
    bool fired[sizeof(kAllOpts) / sizeof(kAllOpts[0])] = {};

    const OptSet applied_states[] = {OptSet{}, OptSet{Opt::Smt2}};
    const double n_avgs[] = {0.5, 0.95 * platform.l1Mshrs,
                             0.6 * platform.l2Mshrs};
    const unsigned stream_counts[] = {1, core::Recipe::kStreamHeavy + 2};
    for (bool near_bw : {false, true}) {
        for (bool near_mshr : {false, true}) {
            for (core::MshrLevel level :
                 {core::MshrLevel::L1, core::MshrLevel::L2}) {
                for (core::AccessClass cls :
                     {core::AccessClass::Random,
                      core::AccessClass::Streaming}) {
                    for (double n_avg : n_avgs) {
                        for (double demand : {0.2, 0.6}) {
                          for (double pct : {0.3, 0.6}) {
                            for (unsigned streams : stream_counts) {
                                for (const OptSet &applied :
                                     applied_states) {
                                    core::Analysis a;
                                    a.platform = platform.name;
                                    a.nearBandwidthLimit = near_bw;
                                    a.nearMshrLimit = near_mshr;
                                    a.limitingLevel = level;
                                    a.limitingMshrs =
                                        level == core::MshrLevel::L1
                                            ? platform.l1Mshrs
                                            : platform.l2Mshrs;
                                    a.accessClass = cls;
                                    a.nAvg = n_avg;
                                    a.demandFraction = demand;
                                    a.demandFractionKnown = true;
                                    a.activeStreams = streams;
                                    a.activeStreamsKnown = true;
                                    a.pctPeak = pct;
                                    a.bwGBs = pct * platform.peakGBs;
                                    a.maxAchievableGBs =
                                        0.8 * platform.peakGBs;
                                    core::RecipeDecision d =
                                        recipe.advise(a, applied);
                                    for (const core::Recommendation &r :
                                         d.recommendations) {
                                        if (!r.recommended)
                                            continue;
                                        for (size_t i = 0;
                                             i < std::size(kAllOpts);
                                             ++i) {
                                            if (kAllOpts[i] == r.opt)
                                                fired[i] = true;
                                        }
                                    }
                                }
                            }
                          }
                        }
                    }
                }
            }
        }
    }

    DiagnosticList out;
    for (size_t i = 0; i < std::size(kAllOpts); ++i) {
        if (fired[i])
            continue;
        const Opt opt = kAllOpts[i];
        const unsigned want_ways =
            opt == Opt::Smt2 ? 2 : (opt == Opt::Smt4 ? 4 : 0);
        if (want_ways != 0 && platform.maxSmtWays < want_ways) {
            out.note("LLL-RCP-001", platform.name,
                     "recipe state '%s' is statically unreachable: "
                     "%s supports at most %u-way SMT",
                     workloads::optName(opt), platform.name.c_str(),
                     platform.maxSmtWays);
        } else {
            out.note("LLL-RCP-002", platform.name,
                     "recipe never recommends '%s' on %s in any "
                     "analysis state (dead recommendation)",
                     workloads::optName(opt), platform.name.c_str());
        }
    }
    return out;
}

ConfigLint
lintConfig(const platforms::Platform &platform,
           const workloads::Workload &workload, const OptSet &opts)
{
    ConfigLint cl;
    cl.subject = platform.name + "/" + workload.name() + " [" +
                 opts.label() + "]";

    util::Result<sim::SystemParams> sys =
        platform.trySysParams(platform.totalCores, opts.smtWays());
    if (!sys.ok()) {
        cl.diagnostics.error("LLL-PLAT-001", cl.subject, "%s",
                             sys.status().message().c_str());
        return cl;
    }

    const sim::KernelSpec spec = workload.spec(platform, opts);
    cl.diagnostics = lintSpec(*sys, spec, cl.subject);
    if (cl.diagnostics.hasErrors())
        return cl;

    cl.bounds = core::deriveBounds(*sys, spec);
    cl.boundsValid = true;

    // The workload model's a-priori access-pattern hint must agree
    // with what its own stream mix implies, or the analyzer and the
    // simulator will reason about two different routines.
    if (workload.randomDominated() != cl.bounds.randomDominated) {
        cl.diagnostics.warning(
            "LLL-LINT-108", cl.subject,
            "workload model declares the routine %s but its stream mix "
            "is %.0f%% random by weight (%s); analyzer hint and "
            "simulated kernel disagree",
            workload.randomDominated() ? "random-dominated"
                                       : "streaming",
            100.0 * cl.bounds.randomWeight,
            cl.bounds.randomDominated ? "random-dominated"
                                      : "streaming");
    }
    return cl;
}

} // namespace lll::analysis
