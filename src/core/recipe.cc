#include "core/recipe.hh"

#include <sstream>

#include "util/logging.hh"
#include "util/table.hh"

namespace lll::core
{

using workloads::Opt;
using workloads::OptSet;

std::vector<Opt>
RecipeDecision::recommendedOpts() const
{
    std::vector<Opt> out;
    for (const Recommendation &r : recommendations) {
        if (r.recommended)
            out.push_back(r.opt);
    }
    return out;
}

Recipe::Recipe(const platforms::Platform &platform) : platform_(platform)
{
}

RecipeDecision
Recipe::advise(const Analysis &a, const OptSet &applied) const
{
    RecipeDecision d;
    std::ostringstream summary;

    auto rec = [&d](Opt opt, bool yes, std::string why) {
        d.recommendations.push_back({opt, yes, std::move(why)});
    };

    const char *level = mshrLevelName(a.limitingLevel);
    const bool smt_avail = platform_.maxSmtWays > applied.smtWays();
    const unsigned next_smt = applied.smtWays() == 1 ? 2 : 4;
    const Opt smt_opt = next_smt == 2 ? Opt::Smt2 : Opt::Smt4;

    if (a.nearBandwidthLimit) {
        // Right branch of Figure 1: the wall is the memory system, not
        // the core.  Only traffic reduction can help.
        summary << "bandwidth wall: " << fmtDouble(a.bwGBs, 1)
                << " GB/s is >= "
                << fmtDouble(kBwWallFraction * a.maxAchievableGBs, 1)
                << " GB/s (" << fmtDouble(100.0 * kBwWallFraction, 0)
                << "% of " << fmtDouble(a.maxAchievableGBs, 1)
                << " GB/s peak achievable); only optimizations that "
                   "reduce memory traffic can help";
        rec(Opt::Tiling, !applied.has(Opt::Tiling),
            "reduces memory requests per unit work, lowering both "
            "bandwidth demand and MSHRQ occupancy");
        rec(Opt::Fusion, !applied.has(Opt::Fusion),
            "shortens reuse distance, cutting memory traffic");
        rec(Opt::Vectorize, false,
            "increases MLP, but achieved bandwidth is already at the "
            "peak achievable level");
        rec(smt_opt, false,
            "more threads cannot raise bandwidth past the wall and may "
            "add cache contention");
        rec(Opt::SwPrefetchL2, false,
            "prefetches add requests to an already saturated memory "
            "system");
        d.stop = applied.has(Opt::Tiling) && applied.has(Opt::Fusion);
        d.summary = summary.str();
        return d;
    }

    if (a.nearMshrLimit) {
        summary << level << " MSHRQ effectively full (n_avg "
                << fmtDouble(a.nAvg, 2) << " of " << a.limitingMshrs
                << "); MLP-increasing optimizations cannot help";
        // The ISx move: random-access routines pinned at the L1 MSHRQ
        // can shift the bottleneck to the larger, idle L2 queue with
        // prefetch-to-L2 instructions.
        if (a.limitingLevel == MshrLevel::L1 &&
            platform_.l2Mshrs > a.nAvg && !a.nearBandwidthLimit) {
            rec(Opt::SwPrefetchL2, !applied.has(Opt::SwPrefetchL2),
                "random accesses leave the larger L2 MSHRQ idle; "
                "prefetching into the L2 shifts the bottleneck there and "
                "shortens L1 MSHR residency");
        } else {
            rec(Opt::SwPrefetchL2, false,
                "every software prefetch occupies an MSHR the demand "
                "stream needs");
        }
        rec(Opt::Tiling, !applied.has(Opt::Tiling),
            "high occupancy responds to fewer memory requests, not more "
            "parallelism");
        // The fusion/distribution dual: a full MSHRQ driven by many
        // concurrent streams is stream contention — each stream holds
        // queue slots and a prefetcher table entry, so splitting the
        // loop (fission) lets each piece run with fewer streams.  With
        // few streams the queue is full of one stream's misses and
        // fusing loops to shorten reuse distance is the move instead.
        const bool stream_heavy = a.activeStreamsKnown &&
                                  a.activeStreams >= kStreamHeavy;
        if (stream_heavy) {
            rec(Opt::Distribution, !applied.has(Opt::Distribution),
                std::to_string(a.activeStreams) +
                    " concurrent streams contend for the full MSHRQ; "
                    "splitting the loop runs fewer streams at a time, "
                    "each with more queue slots");
            rec(Opt::Fusion, false,
                "fusing loops adds concurrent streams to an MSHRQ "
                "already contended by " +
                    std::to_string(a.activeStreams) + " of them");
        } else {
            rec(Opt::Fusion, !applied.has(Opt::Fusion),
                "reuse-distance reduction lowers MSHRQ occupancy");
            rec(Opt::Distribution, false,
                "few active streams; splitting the loop only forfeits "
                "reuse");
        }
        rec(Opt::Vectorize, false, "the MSHRQ cannot hold more misses");
        rec(smt_opt, false,
            "SMT threads share the full MSHRQ; no room for more "
            "in-flight misses");
        d.stop = applied.has(Opt::SwPrefetchL2) &&
                 applied.has(Opt::Tiling);
        d.summary = summary.str();
        return d;
    }

    // Headroom: the left branch — everything that raises MLP is on the
    // table.
    summary << "headroom: n_avg " << fmtDouble(a.nAvg, 2) << " of "
            << a.limitingMshrs << " " << level
            << " MSHRs and bandwidth at " << fmtDouble(a.pctPeak * 100, 0)
            << "% of peak; raise MLP";

    // High bandwidth utilization even before the wall: traffic
    // reduction already pays (the paper's MiniGhost reasoning, §IV-E).
    if (a.pctPeak >= 0.55) {
        rec(Opt::Tiling, !applied.has(Opt::Tiling),
            "bandwidth utilization is already high; cutting memory "
            "requests per unit work pays before the wall is reached");
    }

    rec(Opt::Vectorize, !applied.has(Opt::Vectorize),
        "more lanes put more independent memory requests in flight");
    if (smt_avail) {
        rec(smt_opt, true,
            "threads sharing a core multiply in-flight misses; the "
            "MSHRQ has room for them");
    } else {
        rec(smt_opt, false,
            platform_.maxSmtWays == 1
                ? "the platform does not support SMT"
                : "SMT ways exhausted");
    }
    // Software prefetch helps irregular patterns outright, and also
    // streaming codes whose hardware-prefetch coverage is only partial
    // (short trip counts, awkward strides — the paper's SNAP case,
    // §IV-F), which the demand-share counter exposes.
    bool partial_coverage = a.demandFractionKnown &&
                            a.demandFraction > 0.35;
    if (a.accessClass == AccessClass::Random) {
        rec(Opt::SwPrefetchL2, !applied.has(Opt::SwPrefetchL2),
            "the hardware prefetcher misses irregular patterns; "
            "software prefetch covers them");
    } else if (partial_coverage) {
        rec(Opt::SwPrefetchL2, !applied.has(Opt::SwPrefetchL2),
            "the hardware prefetcher covers these streams only "
            "partially (demand share " +
                fmtDouble(a.demandFraction * 100, 0) +
                "%); user-directed prefetches can fill the gap");
    } else {
        rec(Opt::SwPrefetchL2, false,
            "streaming patterns are already covered by the hardware "
            "prefetcher");
    }
    rec(Opt::UnrollJam, a.nAvg < 1.0 && !applied.has(Opt::UnrollJam),
        a.nAvg < 1.0 ? "accesses mostly hit in cache (very low MLP); "
                       "register tiling attacks the remaining latency"
                     : "useful mainly when data already sits high in the "
                       "hierarchy");
    rec(Opt::Distribution, false,
        "only helps when too many active streams contend; MLP is not "
        "stream-limited here");

    d.summary = summary.str();
    return d;
}

} // namespace lll::core
