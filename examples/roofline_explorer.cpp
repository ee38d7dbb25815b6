/**
 * @file
 * Roofline explorer — the paper's Fig. 2 view for any platform, with
 * every modelled workload placed on it.
 *
 * Prints the classic roofs, the MSHR-imposed bandwidth ceilings, and
 * each workload's base-variant operating point (bandwidth and which
 * ceiling pins it), showing at a glance who is compute bound, who is
 * bandwidth bound, and who is *MSHR* bound — the distinction the
 * classic roofline cannot draw.
 *
 *   ./roofline_explorer [platform]   (default: knl)
 */

#include <cstdio>

#include "lll/lll.hh"

using namespace lll;

int
main(int argc, char **argv)
{
    util::Result<platforms::Platform> plat_r =
        platforms::findPlatform(argc > 1 ? argv[1] : "knl");
    if (!plat_r.ok()) {
        std::fprintf(stderr, "roofline_explorer: %s\n",
                     plat_r.status().toString().c_str());
        return 1;
    }
    platforms::Platform plat = plat_r.take();
    util::Result<xmem::LatencyProfile> profile_r =
        xmem::XMemHarness().measureCachedChecked(
            plat, xmem::defaultProfilePath(plat));
    if (!profile_r.ok()) {
        std::fprintf(stderr, "roofline_explorer: %s\n",
                     profile_r.status().toString().c_str());
        return 1;
    }
    const xmem::LatencyProfile profile = profile_r.take();
    core::Roofline roof(plat, profile);

    const int cores = plat.totalCores;
    double l1_bw = roof.mshrCeilingGBs(core::MshrLevel::L1, cores);
    double l2_bw = roof.mshrCeilingGBs(core::MshrLevel::L2, cores);

    std::printf("Roofline for %s\n", plat.description.c_str());
    std::printf("  compute roof      : %.0f GFlop/s\n", roof.peakGFlops());
    std::printf("  bandwidth roof    : %.0f GB/s\n", roof.peakGBs());
    std::printf("  L1-MSHR ceiling   : %.0f GB/s\n", l1_bw);
    std::printf("  L2-MSHR ceiling   : %.0f GB/s\n", l2_bw);
    std::printf("  ridge intensity   : %.2f flop/byte\n\n",
                roof.ridgeIntensity());

    Table t({"workload", "routine", "BW (GB/s)", "n_avg", "pattern",
             "pinned by"});
    t.setCaption("Base variants on the roofline");
    // Every base variant is one stage of one runStages batch.
    const std::vector<workloads::WorkloadPtr> workloads =
        workloads::allWorkloads();
    std::vector<core::SweepRunner::StageUnit> units;
    for (const workloads::WorkloadPtr &w : workloads)
        units.push_back({plat, w.get(), {}});
    const std::vector<core::SweepRunner::StageOutcome> outcomes =
        core::SweepRunner({}).runStages(units);
    for (size_t i = 0; i < workloads.size(); ++i) {
        const workloads::WorkloadPtr &w = workloads[i];
        if (!outcomes[i].status.ok()) {
            std::fprintf(stderr, "roofline_explorer: %s\n",
                         outcomes[i].status.toString().c_str());
            return 1;
        }
        const core::Analysis &a = outcomes[i].metrics.analysis;

        const char *pinned = "core/compute";
        double ceiling = a.limitingLevel == core::MshrLevel::L1 ? l1_bw
                                                                : l2_bw;
        if (a.nearBandwidthLimit)
            pinned = "bandwidth roof";
        else if (a.bwGBs > 0.85 * ceiling)
            pinned = a.limitingLevel == core::MshrLevel::L1
                         ? "L1-MSHR ceiling"
                         : "L2-MSHR ceiling";

        t.addRow({w->name(), w->routine(), fmtDouble(a.bwGBs, 1),
                  fmtDouble(a.nAvg, 2),
                  core::accessClassName(a.accessClass), pinned});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
