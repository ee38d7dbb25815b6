#include "core/bounds.hh"

#include <algorithm>
#include <cmath>

#include "sim/mem_ctrl.hh"
#include "util/stats.hh"

namespace lll::core
{

SpecBounds
deriveBounds(const sim::SystemParams &sys, const sim::KernelSpec &spec)
{
    SpecBounds b;
    b.l1Mshrs = sys.l1.mshrs;
    b.l2Mshrs = sys.l2.mshrs;

    b.exposedMlpPerThread = std::min<double>(spec.window, sys.lqSize);
    b.exposedMlpPerCore = b.exposedMlpPerThread * sys.threadsPerCore;

    double random_weight = 0.0, total_weight = 0.0;
    for (const sim::StreamDesc &s : spec.streams) {
        if (!(s.weight > 0.0) || !std::isfinite(s.weight))
            continue;
        total_weight += s.weight;
        if (s.kind == sim::StreamDesc::Kind::Random)
            random_weight += s.weight;
    }
    b.randomWeight = total_weight > 0.0 ? random_weight / total_weight
                                        : 0.0;
    b.randomDominated = b.randomWeight > 0.5;
    b.prefetcherCovers = !b.randomDominated && sys.l2PrefetcherEnabled;

    // Unloaded memory round trip: both private cache lookups plus the
    // controller's request path, one bank service and the response path.
    double idle = ticksToNs(sys.l1.accessLat + sys.l2.accessLat +
                            (sys.hasL3 ? sys.l3.accessLat : 0));
    idle += sys.mem.frontLatencyNs + sys.mem.bankServiceNs +
            sys.mem.backLatencyNs;
    b.idleLatencyNs = idle;

    // Which queue caps in-flight lines: random misses hold L1 MSHRs for
    // the full memory latency; prefetcher-covered streaming fills the
    // (larger) L2 queue independently of the demand MLP the code
    // exposes.
    if (b.randomDominated) {
        b.effectiveMlpPerCore =
            std::min(b.exposedMlpPerCore, static_cast<double>(b.l1Mshrs));
    } else if (b.prefetcherCovers || spec.swPrefetchL2) {
        b.effectiveMlpPerCore = b.l2Mshrs;
    } else {
        b.effectiveMlpPerCore = std::min(
            b.exposedMlpPerCore,
            static_cast<double>(std::min(b.l1Mshrs, b.l2Mshrs)));
    }

    // Little's law (Eq. 2) solved for bandwidth: BW = n * cls / lat.
    b.peakGBs = sys.mem.peakGBs;
    if (idle > 0.0) {
        const double per_line = sys.lineBytes / idle; // GB/s per request
        b.l1CeilingGBs = sys.cores * b.l1Mshrs * per_line;
        b.l2CeilingGBs = sys.cores * b.l2Mshrs * per_line;
        b.mlpCeilingGBs = sys.cores * b.effectiveMlpPerCore * per_line;
        if (sys.cores > 0) {
            b.nAvgAtPeakPerCore =
                b.peakGBs * idle / sys.lineBytes / sys.cores;
        }
    }

    for (const sim::StreamDesc &s : spec.streams)
        b.footprintBytes += s.footprintLines * sys.lineBytes;
    b.l1CapacityBytes =
        static_cast<uint64_t>(sys.l1.sets) * sys.l1.ways * sys.lineBytes;
    b.l2CapacityBytes =
        static_cast<uint64_t>(sys.l2.sets) * sys.l2.ways * sys.lineBytes;

    return b;
}

double
throughputCeilingGBs(const sim::SystemParams &sys,
                     const sim::KernelSpec &spec)
{
    // Line capacity: a line holds its L2 MSHR for at least the
    // tick-quantized memory round trip (queuing, L3 lookups and the
    // fill path only lengthen the hold).  The L1 MSHR count is the
    // tighter budget only when demand is the sole issuer; the paper's
    // ISx row measures n_avg above it because the prefetcher keeps
    // extra lines in flight.
    const double hold_ns = ticksToNs(nsToTicks(sys.mem.frontLatencyNs)) +
                           ticksToNs(nsToTicks(sys.mem.bankServiceNs)) +
                           ticksToNs(nsToTicks(sys.mem.backLatencyNs));
    double lines = sys.l2.mshrs;
    if (!sys.l2PrefetcherEnabled && !spec.swPrefetchL2)
        lines = std::min(lines, static_cast<double>(sys.l1.mshrs));
    const double line_cap =
        hold_ns > 0.0 ? static_cast<double>(sys.cores) * lines *
                            static_cast<double>(sys.lineBytes) / hold_ns
                      : sys.mem.peakGBs;

    // Bank capacity: every line serializes on one bank for the
    // tick-quantized service time.  Not the declared peak, which
    // bank-count rounding can land either side of: the pruner needs
    // the strict cap.
    const double service_ns = ticksToNs(nsToTicks(sys.mem.bankServiceNs));
    const double bank_cap =
        service_ns > 0.0
            ? static_cast<double>(sim::MemCtrl::banksFor(sys.mem)) *
                  static_cast<double>(sys.mem.lineBytes) / service_ns
            : sys.mem.peakGBs;
    return std::min(line_cap, bank_cap);
}

void
writeBounds(util::JsonWriter &w, const SpecBounds &b)
{
    w.beginObject(util::JsonWriter::Layout::Block)
        .precision(6)
        .member("exposed_mlp_per_thread", b.exposedMlpPerThread)
        .member("exposed_mlp_per_core", b.exposedMlpPerCore)
        .member("l1_mshrs", b.l1Mshrs)
        .member("l2_mshrs", b.l2Mshrs)
        .member("effective_mlp_per_core", b.effectiveMlpPerCore)
        .member("idle_latency_ns", b.idleLatencyNs)
        .member("peak_gbs", b.peakGBs)
        .member("l1_ceiling_gbs", b.l1CeilingGBs)
        .member("l2_ceiling_gbs", b.l2CeilingGBs)
        .member("mlp_ceiling_gbs", b.mlpCeilingGBs)
        .member("n_avg_at_peak_per_core", b.nAvgAtPeakPerCore)
        .member("footprint_bytes", b.footprintBytes)
        .member("l1_capacity_bytes", b.l1CapacityBytes)
        .member("l2_capacity_bytes", b.l2CapacityBytes)
        .member("random_weight", b.randomWeight)
        .member("random_dominated", b.randomDominated)
        .member("prefetcher_covers", b.prefetcherCovers)
        .member("vacuous", b.vacuous())
        .end();
}

} // namespace lll::core
