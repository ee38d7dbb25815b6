/**
 * @file
 * Recipe-driven iterative optimization — the paper's Figure 1 loop run
 * to convergence.
 *
 * Starting from the base variant, repeatedly: analyze, ask the recipe
 * for the most promising optimization, apply it in simulation, keep it
 * if it pays, and stop when the recipe says stop (MSHRQ full or
 * bandwidth wall) or nothing helps — printing the same per-step
 * reasoning a user of the paper's method would follow.
 *
 *   ./optimize_workload [workload] [platform]   (defaults: pennant knl)
 */

#include <cstdio>

#include "lll/lll.hh"

using namespace lll;
using workloads::Opt;
using workloads::OptSet;

int
main(int argc, char **argv)
{
    util::Result<workloads::WorkloadPtr> work_r =
        workloads::findWorkload(argc > 1 ? argv[1] : "pennant");
    util::Result<platforms::Platform> plat_r =
        platforms::findPlatform(argc > 2 ? argv[2] : "knl");
    if (!work_r.ok() || !plat_r.ok()) {
        const util::Status &bad =
            work_r.ok() ? plat_r.status() : work_r.status();
        std::fprintf(stderr, "optimize_workload: %s\n",
                     bad.toString().c_str());
        return 1;
    }
    workloads::WorkloadPtr work = work_r.take();
    platforms::Platform plat = plat_r.take();

    // Each stage runs through the runner behind every `lll` command,
    // which loads (or first measures) the platform's profile; a failed
    // one (an unusable profile, a watchdog trip) ends the walk with its
    // status.
    core::SweepRunner runner({});
    auto stage = [&](const OptSet &opts) {
        return runner.runStages({{plat, work.get(), opts}}).front();
    };
    auto fail = [](const util::Status &status) {
        std::fprintf(stderr, "optimize_workload: %s\n",
                     status.toString().c_str());
        return 1;
    };
    core::Recipe recipe(plat);

    std::printf("Optimizing %s (%s) on %s\n\n", work->routine().c_str(),
                work->name().c_str(), plat.description.c_str());

    OptSet state;
    core::SweepRunner::StageOutcome out = stage(state);
    if (!out.status.ok())
        return fail(out.status);
    core::StageMetrics m = out.metrics;
    const double base_throughput = m.throughput;

    for (int step = 1; step <= 8; ++step) {
        const core::Analysis &a = m.analysis;
        std::printf("step %d: [%s]\n", step, state.label().c_str());
        std::printf("  BW %.1f GB/s (%.0f%%), lat %.0f ns, n_avg %.2f "
                    "of %u %s MSHRs, cumulative %.2fx\n",
                    a.bwGBs, a.pctPeak * 100.0, a.latencyNs, a.nAvg,
                    a.limitingMshrs,
                    core::mshrLevelName(a.limitingLevel),
                    m.throughput / base_throughput);

        core::RecipeDecision d = recipe.advise(a, state);
        std::printf("  recipe: %s\n", d.summary.c_str());
        if (d.stop) {
            std::printf("  recipe says stop.\n");
            break;
        }

        // Try recommendations in order until one pays off (the paper's
        // "repeat the process depending on observed performance").
        bool improved = false;
        for (Opt opt : d.recommendedOpts()) {
            OptSet candidate = state.with(opt);
            core::SweepRunner::StageOutcome next = stage(candidate);
            if (!next.status.ok())
                return fail(next.status);
            double s = next.metrics.throughput / m.throughput;
            std::printf("  try %-20s -> %.2fx %s\n",
                        workloads::optName(opt), s,
                        s >= 1.02 ? "(kept)" : "(reverted)");
            if (s >= 1.02) {
                state = candidate;
                m = next.metrics;
                improved = true;
                break;
            }
        }
        if (!improved) {
            std::printf("  no recommended optimization helped; user "
                        "intuition takes over from here (paper SIV-F).\n");
            break;
        }
        std::printf("\n");
    }

    std::printf("\nfinal variant [%s]: %.2fx over base, BW %.1f GB/s "
                "(%.0f%%), n_avg %.2f\n",
                state.label().c_str(), m.throughput / base_throughput,
                m.analysis.bwGBs, m.analysis.pctPeak * 100.0,
                m.analysis.nAvg);
    return 0;
}
