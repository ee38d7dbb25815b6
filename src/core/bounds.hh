/**
 * @file
 * Analytical bounds derived from one (SystemParams, KernelSpec) pair:
 * the MLP the code can expose versus the MSHR capacity that will cap
 * it, the bandwidth ceiling Little's law implies for that capacity at
 * the node's idle latency, and the stream-mix classification the
 * analyzer and the lint checks both reason from.
 *
 * This lives in core (not analysis) because the experiment runner
 * consumes the bounds too: stage admission (core::admitStage) refuses
 * configs whose bounds make every downstream conclusion vacuous
 * (LLL-LINT-102/106), and the search pruner reads its ceiling
 * (throughputCeilingGBs) from here; analysis already links core, so
 * the derivation must sit below all of them.
 *
 * Everything here is a pure function of the static tables — no X-Mem
 * profile, no event queue — so output is byte-deterministic.
 */

#ifndef LLL_CORE_BOUNDS_HH
#define LLL_CORE_BOUNDS_HH

#include <cstdint>
#include <string>

#include "sim/kernel_spec.hh"
#include "sim/system.hh"
#include "util/json.hh"

namespace lll::core
{

/**
 * The numbers the lint checks compare, also exported in the JSON
 * report so downstream tooling can consume them without re-deriving.
 */
struct SpecBounds
{
    // MLP: what the code exposes vs what the hardware can hold.
    double exposedMlpPerThread = 0.0; //!< min(window, load-queue size)
    double exposedMlpPerCore = 0.0;   //!< per-thread * SMT ways
    unsigned l1Mshrs = 0;             //!< per-core L1 MSHR capacity
    unsigned l2Mshrs = 0;             //!< per-core L2 MSHR capacity
    /** MLP after the limiting MSHR queue caps it (prefetcher-covered
     *  streaming mixes can fill the L2 queue beyond the demand MLP). */
    double effectiveMlpPerCore = 0.0;

    /** Unloaded round trip to memory: cache lookups + controller
     *  front/bank/back latencies. */
    double idleLatencyNs = 0.0;

    // Bandwidth (GB/s): the declared peak vs Little's-law ceilings
    // (n * cls / lat, Equation 2 solved for BW) at idle latency —
    // optimistic, since loaded latency only grows.
    double peakGBs = 0.0;
    double l1CeilingGBs = 0.0;  //!< all L1 MSHRs busy, node-wide
    double l2CeilingGBs = 0.0;  //!< all L2 MSHRs busy, node-wide
    double mlpCeilingGBs = 0.0; //!< effective MLP busy, node-wide
    /** Per-core n_avg required to sustain the declared peak. */
    double nAvgAtPeakPerCore = 0.0;

    // Working-set size vs private cache capacity: a kernel whose
    // footprint fits in the L1 never exercises the memory system.
    uint64_t footprintBytes = 0;   //!< sum of stream footprints
    uint64_t l1CapacityBytes = 0;  //!< sets * ways * line
    uint64_t l2CapacityBytes = 0;

    // Access-pattern classification from the stream mix.
    double randomWeight = 0.0; //!< weight share of Random streams
    bool randomDominated = false;
    bool prefetcherCovers = false; //!< streaming mix + HW prefetcher on

    /**
     * True when Little's-law analysis of this config cannot say
     * anything: the effective MLP loads the memory system to under 5%
     * of peak (LLL-LINT-102) or the footprint fits in the L1
     * (LLL-LINT-106).  core::admitStage refuses such configs.
     */
    bool vacuous() const
    {
        return mlpCeilingGBs < 0.05 * peakGBs ||
               footprintBytes <= l1CapacityBytes;
    }
};

/** Derive the bounds above; pure arithmetic, no validation. */
SpecBounds deriveBounds(const sim::SystemParams &sys,
                        const sim::KernelSpec &spec);

/**
 * The search pruner's bandwidth ceiling (GB/s) for @p sys running
 * @p spec: min(in-flight-line capacity, bank-serialization capacity),
 * by Little's law at the idle memory round trip.  Unlike
 * SpecBounds::mlpCeilingGBs, an estimate of the MLP the kernel is
 * expected to expose, it is meant as a proven cap (DESIGN.md §17.2,
 * which also names the case where it is not).
 */
double throughputCeilingGBs(const sim::SystemParams &sys,
                            const sim::KernelSpec &spec);

/** Every SpecBounds field as a block-layout JSON object
 *  ({"idle_latency_ns": ...}), doubles to 6 significant digits. */
void writeBounds(util::JsonWriter &w, const SpecBounds &bounds);

} // namespace lll::core

#endif // LLL_CORE_BOUNDS_HH
