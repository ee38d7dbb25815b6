/**
 * @file
 * A simplified Top-Down Microarchitectural Analysis (TMA) classifier —
 * the baseline the paper critiques (§I, §II).
 *
 * Reproduces the *kind* of output VTune's microarchitecture exploration
 * gives: pipeline-slot percentages, a memory-bound split into bandwidth-
 * vs latency-bound via a memory-controller occupancy threshold, and the
 * average load latency derived the way the load-latency facility sees it
 * (averaged over all loads, so prefetched streaming loads drag it to a
 * misleadingly small number — the paper's hpcg and SNAP anecdotes).
 */

#ifndef LLL_CORE_TMA_HH
#define LLL_CORE_TMA_HH

#include "platforms/platform.hh"
#include "sim/system.hh"

namespace lll::core
{

/** TMA-style classification of one measurement window. */
struct TmaReport
{
    // Top level, in percent of pipeline slots.
    double retiringPct = 0.0;
    double frontendPct = 0.0;
    double badSpeculationPct = 0.0;
    double backendPct = 0.0;

    // Backend split.
    double coreBoundPct = 0.0;
    double memoryBoundPct = 0.0;

    // Memory-bound split via the controller-occupancy heuristic.
    double bandwidthBoundPct = 0.0;
    double latencyBoundPct = 0.0;

    /** Average load latency in core cycles, averaged over *all* loads
     *  (the misleading small number the paper dissects). */
    double avgLoadLatencyCycles = 0.0;

    /** The controller occupancy the bw/lat split keyed on. */
    double memCtrlUtilization = 0.0;
};

/** Controller utilization above which memory-bound cycles are
 *  attributed to "bandwidth bound". */
constexpr double kTmaBandwidthThreshold = 0.45;

/**
 * The baseline analyzer.
 */
class Tma
{
  public:
    explicit Tma(const platforms::Platform &platform);

    TmaReport analyze(const sim::RunResult &run) const;

  private:
    platforms::Platform platform_;
};

} // namespace lll::core

#endif // LLL_CORE_TMA_HH
