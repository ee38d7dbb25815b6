/**
 * @file
 * Quickstart: the paper's whole method in ~60 lines.
 *
 * Analyze one routine (ISx's count_local_keys) on one platform (SKL):
 * measure its bandwidth with portable counters, translate to loaded
 * latency via the once-per-processor X-Mem profile, apply Little's law
 * to get the observed MLP, compare against the limiting MSHR queue, and
 * ask the recipe what to do next.
 *
 *   ./quickstart [platform] [workload]     (defaults: skl isx)
 */

#include <cstdio>

#include "lll/lll.hh"

using namespace lll;

int
main(int argc, char **argv)
{
    // 1. The platform (a simulated stand-in for the paper's hardware).
    util::Result<platforms::Platform> plat_r =
        platforms::findPlatform(argc > 1 ? argv[1] : "skl");
    util::Result<workloads::WorkloadPtr> work_r =
        workloads::findWorkload(argc > 2 ? argv[2] : "isx");
    if (!plat_r.ok() || !work_r.ok()) {
        const util::Status &bad =
            plat_r.ok() ? work_r.status() : plat_r.status();
        std::fprintf(stderr, "quickstart: %s\n", bad.toString().c_str());
        return 1;
    }
    platforms::Platform plat = plat_r.take();
    workloads::WorkloadPtr work = work_r.take();

    std::printf("Platform : %s (%d cores, %.0f GB/s peak, %u/%u L1/L2 "
                "MSHRs per core)\n",
                plat.description.c_str(), plat.totalCores, plat.peakGBs,
                plat.l1Mshrs, plat.l2Mshrs);
    std::printf("Routine  : %s (%s)\n\n", work->routine().c_str(),
                work->description().c_str());

    // 2. The bandwidth->latency profile, measured once per processor
    //    (cached under data/profiles/).
    xmem::XMemHarness harness;
    util::Result<xmem::LatencyProfile> profile_r =
        harness.measureCachedChecked(plat,
                                     xmem::defaultProfilePath(plat));
    if (!profile_r.ok()) {
        std::fprintf(stderr, "quickstart: %s\n",
                     profile_r.status().toString().c_str());
        return 1;
    }
    xmem::LatencyProfile profile = profile_r.take();
    std::printf("Profile  : idle %.0f ns, %.0f ns at peak achievable "
                "%.0f GB/s\n\n",
                profile.idleLatencyNs(),
                profile.latencyAt(profile.maxMeasuredGBs()),
                profile.maxMeasuredGBs());

    // 3. Run the routine on a loaded node and profile it: one stage
    //    through the runner behind every `lll` command.
    core::SweepRunner runner({});
    auto stage = [&](const workloads::OptSet &opts) {
        return runner.runStages({{plat, work.get(), opts}}).front();
    };
    const core::SweepRunner::StageOutcome base = stage({});
    if (!base.status.ok()) {
        std::fprintf(stderr, "quickstart: %s\n",
                     base.status.toString().c_str());
        return 1;
    }

    // 4. The metric: observed MLP via Little's law (Equation 2).
    const core::Analysis &a = base.metrics.analysis;
    std::printf("Measured : BW %.1f GB/s (%.0f%% of peak) -> loaded "
                "latency %.0f ns\n",
                a.bwGBs, a.pctPeak * 100.0, a.latencyNs);
    std::printf("Little   : n_avg = %.0f ns x %.1f GB/s / %u B / %d "
                "cores = %.2f\n",
                a.latencyNs, a.bwGBs, plat.lineBytes, a.coresUsed,
                a.nAvg);
    std::printf("Limit    : %s MSHR queue, %u entries (%s accesses)\n\n",
                core::mshrLevelName(a.limitingLevel), a.limitingMshrs,
                core::accessClassName(a.accessClass));

    // 5. The recipe (paper Figure 1).
    core::Recipe recipe(plat);
    core::RecipeDecision d = recipe.advise(a, workloads::OptSet{});
    std::printf("Verdict  : %s\n\nRecommendations:\n", d.summary.c_str());
    for (const core::Recommendation &r : d.recommendations) {
        std::printf("  [%s] %-22s %s\n", r.recommended ? "TRY " : "skip",
                    workloads::optName(r.opt), r.rationale.c_str());
    }

    // Validate the top recommendation end to end.
    auto recs = d.recommendedOpts();
    if (!recs.empty()) {
        const core::SweepRunner::StageOutcome next =
            stage(workloads::OptSet{}.with(recs.front()));
        if (!next.status.ok()) {
            std::fprintf(stderr, "quickstart: %s\n",
                         next.status.toString().c_str());
            return 1;
        }
        double s = next.metrics.throughput / base.metrics.throughput;
        std::printf("\nApplying %s: measured speedup %.2fx\n",
                    workloads::optName(recs.front()), s);
    }
    return 0;
}
