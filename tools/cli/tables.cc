/**
 * @file
 * The commands that print the paper's static tables and a platform's
 * measured or derived limits: platforms, workloads, vendors,
 * characterize and roofline.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli.hh"
#include "core/roofline.hh"
#include "counters/vendor_matrix.hh"
#include "util/table.hh"
#include "xmem/xmem_harness.hh"

namespace lll::cli
{

namespace
{

/** The request of a command without flags or operands. */
struct NoRequest
{
};

util::Result<Outcome>
runPlatforms(const NoRequest &, const Context &ctx)
{
    Table t({"id", "Platform", "# Cores @ Rate", "Peak BW",
             "L1 MSHRs/core", "L2 MSHRs/core", "Line", "SMT", "Peak DP"});
    t.setCaption("Table III — Platforms used in experiments");
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        // The paper gives A64FX's L2 MSHR count as approximate.
        std::string l2 = p.name == "a64fx" ? "~" : "";
        l2 += std::to_string(p.l2Mshrs);
        t.addRow({p.name, p.description,
                  std::to_string(p.totalCores) + " @ " +
                      fmtDouble(p.freqGHz, 1) + "GHz",
                  fmtDouble(p.peakGBs, 0) + " GB/s",
                  std::to_string(p.l1Mshrs), l2,
                  std::to_string(p.lineBytes) + "B",
                  std::to_string(p.maxSmtWays) + "-way",
                  fmtDouble(p.peakGFlops / 1000.0, 2) + " TF"});
    }
    std::fputs(t.render().c_str(), ctx.report);
    return Outcome{};
}

util::Result<Outcome>
runWorkloads(const NoRequest &, const Context &ctx)
{
    Table t({"id", "description", "routine", "problem size", "pattern"});
    for (const workloads::WorkloadPtr &w :
         workloads::allWorkloadsAndExtensions()) {
        t.addRow({w->name(), w->description(), w->routine(),
                  w->problemSize(),
                  w->randomDominated() ? "random" : "streaming"});
    }
    std::fputs(t.render().c_str(), ctx.report);
    return Outcome{};
}

util::Result<Outcome>
runVendors(const NoRequest &, const Context &ctx)
{
    Table t({"Processor", "Breakdown of stalls", "L1-MSHRQ-full stalls",
             "L2-MSHRQ-full stalls", "Memory latency", "Memory traffic"});
    t.setCaption("Table I — Visibility into events across vendors "
                 "(memory-traffic column added: the portable subset)");
    for (const counters::VendorSummary &v :
         counters::vendorSummaries()) {
        t.addRow({platforms::vendorName(v.vendor),
                  counters::visibilityName(v.stallBreakdown),
                  counters::visibilityName(v.l1MshrFullStalls),
                  counters::visibilityName(v.l2MshrFullStalls),
                  counters::visibilityName(v.memoryLatency),
                  counters::visibilityName(v.memoryTraffic)});
    }
    std::fputs(t.render().c_str(), ctx.report);
    return Outcome{};
}

struct CharacterizeRequest
{
    bool fresh = false;
    int jobs = 1;
    std::string platform; //!< a platform name or "all"
};

template <class V, util::RecordOf<CharacterizeRequest> R>
void
visitFields(V &v, R &r)
{
    v("fresh", r.fresh, {.help = "re-measure even when a profile exists"});
    v("jobs", r.jobs,
      {.lo = 1, .help = "threads running the operating points"});
}

Status
decodeOperands(util::ArgParser &ap, CharacterizeRequest &r,
               const char *command)
{
    return takeOperand(ap, command, "a platform (or all)", r.platform);
}

util::Result<Outcome>
runCharacterize(const CharacterizeRequest &r, const Context &ctx)
{
    std::vector<platforms::Platform> plats;
    if (r.platform == "all") {
        plats = platforms::allPlatforms();
    } else {
        util::Result<platforms::Platform> p =
            platforms::findPlatform(r.platform);
        if (!p.ok())
            return p.status();
        plats.push_back(p.take());
    }
    xmem::XMemHarness::Params hp;
    hp.jobs = r.jobs;
    const xmem::XMemHarness harness(hp);
    for (const platforms::Platform &p : plats) {
        std::string path = xmem::defaultProfilePath(p);
        if (r.fresh)
            (void)std::remove(path.c_str()); // absent file is fine
        util::Result<xmem::LatencyProfile> prof =
            harness.measureCachedChecked(p, path);
        if (!prof.ok())
            return prof.status();
        std::fprintf(ctx.report,
                     "%s: idle %.0f ns, peak achievable %.0f GB/s "
                     "(profile: %s)\n",
                     p.name.c_str(), prof->idleLatencyNs(),
                     prof->maxMeasuredGBs(), path.c_str());
    }
    return Outcome{};
}

struct RooflineRequest
{
    platforms::Platform platform;
};

Status
decodeOperands(util::ArgParser &ap, RooflineRequest &r,
               const char *command)
{
    std::string name;
    LLL_RETURN_IF_ERROR(takeOperand(ap, command, "a platform", name));
    util::Result<platforms::Platform> p = platforms::findPlatform(name);
    if (!p.ok())
        return p.status();
    r.platform = p.take();
    return Status::okStatus();
}

util::Result<Outcome>
runRoofline(const RooflineRequest &r, const Context &ctx)
{
    const platforms::Platform &p = r.platform;
    util::Result<xmem::LatencyProfile> prof = profileFor(p);
    if (!prof.ok())
        return prof.status();
    core::Roofline roof(p, prof.take());
    std::fprintf(ctx.report,
                 "%s: peak %.0f GFlop/s, BW roof %.0f GB/s, L1-MSHR "
                 "ceiling %.0f GB/s, L2-MSHR ceiling %.0f GB/s, ridge "
                 "%.2f flop/B\n",
                 p.name.c_str(), roof.peakGFlops(), roof.peakGBs(),
                 roof.mshrCeilingGBs(core::MshrLevel::L1, p.totalCores),
                 roof.mshrCeilingGBs(core::MshrLevel::L2, p.totalCores),
                 roof.ridgeIntensity());
    return Outcome{};
}

} // namespace

const Runner cmdPlatforms = runner<runPlatforms>;
const Runner cmdWorkloads = runner<runWorkloads>;
const Runner cmdVendors = runner<runVendors>;
const Runner cmdCharacterize = runner<runCharacterize>;
const Runner cmdRoofline = runner<runRoofline>;

} // namespace lll::cli
