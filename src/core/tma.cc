#include "core/tma.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/stats.hh"

namespace lll::core
{

Tma::Tma(const platforms::Platform &platform)
    : platform_(platform)
{
}

TmaReport
Tma::analyze(const sim::RunResult &run) const
{
    TmaReport r;
    r.memCtrlUtilization = run.memUtilization;

    // --- average load latency, the load-latency-facility way -----------
    // Averaged over every retired load.  Streaming loads hit close to
    // the core (prefetched), so the mean collapses toward the cache
    // latency even when memory is saturated — the paper's hpcg "32
    // cycles at full bandwidth" observation.
    const double ns_per_cycle = 1.0 / platform_.freqGHz;
    const double l1_hit_ns = 4.0 * ns_per_cycle;
    const double l2_hit_ns = l1_hit_ns + 14.0 * ns_per_cycle;
    // The simulator works at line granularity; real code issues several
    // word loads per touched line and all but the first hit the L1.
    // The facility averages over *those*, which is what collapses its
    // mean toward the cache latency on streaming codes.
    const double word_loads_per_line = 8.0;
    const uint64_t line_loads = run.l1DemandHits + run.l1DemandMisses;
    if (line_loads > 0) {
        uint64_t l2_hits = std::min(run.l2DemandHits, run.l1DemandMisses);
        uint64_t deep = run.l1DemandMisses - l2_hits;
        double line_ns =
            static_cast<double>(run.l1DemandHits) * l1_hit_ns +
            static_cast<double>(l2_hits) * l2_hit_ns +
            static_cast<double>(deep) * (l2_hit_ns + run.avgMemLatencyNs);
        double extra_word_hits =
            static_cast<double>(line_loads) * (word_loads_per_line - 1.0);
        double total_ns = line_ns + extra_word_hits * l1_hit_ns;
        r.avgLoadLatencyCycles =
            total_ns /
            (static_cast<double>(line_loads) * word_loads_per_line) /
            ns_per_cycle;
    }

    // --- pipeline-slot attribution --------------------------------------
    // Simplified but shaped like the real thing: memory-bound share from
    // MSHR pressure and controller load, a heuristic port-utilization
    // core-bound share, small front-end/speculation terms.
    double l1_frac = platform_.l1Mshrs
                         ? std::min(1.0, run.avgL1MshrOccupancy /
                                             platform_.l1Mshrs)
                         : 0.0;
    double mem_bound =
        std::clamp(0.5 * l1_frac + 0.5 * run.memUtilization, 0.0, 1.0);
    double core_bound = (1.0 - mem_bound) * 0.35;
    double backend = mem_bound + core_bound;
    double bad_spec = 0.02;
    double frontend = 0.08 * (1.0 - backend);
    double retiring =
        std::max(0.0, 1.0 - backend - bad_spec - frontend);

    r.memoryBoundPct = 100.0 * mem_bound;
    r.coreBoundPct = 100.0 * core_bound;
    r.backendPct = 100.0 * backend;
    r.badSpeculationPct = 100.0 * bad_spec;
    r.frontendPct = 100.0 * frontend;
    r.retiringPct = 100.0 * retiring;

    // --- bandwidth vs latency split -------------------------------------
    // Keyed on controller occupancy against a self-defined threshold,
    // like TMA; occupancy hovers within a band of the threshold, so both
    // buckets get populated — the ambiguity the paper calls out.
    double band = 0.30;
    double share = std::clamp(
        (run.memUtilization - (kTmaBandwidthThreshold - band / 2)) /
            band,
        0.0, 1.0);
    r.bandwidthBoundPct = r.memoryBoundPct * share;
    r.latencyBoundPct = r.memoryBoundPct - r.bandwidthBoundPct;
    return r;
}

} // namespace lll::core
