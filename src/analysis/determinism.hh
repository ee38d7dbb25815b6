/**
 * @file
 * Event-order determinism checker — a race detector for the
 * discrete-event core, behind `lll lint --determinism`.
 *
 * A correct discrete-event simulation may schedule many events at the
 * same tick, but its *results* must not depend on which of those ties
 * pops first: any such dependence is a hidden ordering bug that makes
 * every reported metric an artifact of insertion order.  The checker
 * re-runs a workload with the equal-tick tie-break order permuted
 * (EventQueue::setTieBreakSeed — timing is untouched, only the pop
 * order of simultaneous events moves) and diffs the final metrics
 * exactly.  Divergence is reported as LLL-DET-0xx error diagnostics.
 *
 * The generic checkDeterminism() entry point takes any
 * seed -> metric-vector runner, so tests can inject deliberately
 * order-sensitive toy handlers and assert the checker catches them.
 */

#ifndef LLL_ANALYSIS_DETERMINISM_HH
#define LLL_ANALYSIS_DETERMINISM_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "platforms/platform.hh"
#include "sim/system.hh"
#include "util/diagnostic.hh"
#include "util/status.hh"
#include "workloads/workload.hh"

namespace lll::analysis
{

/** One named scalar result of a run (flattened RunResult, or whatever
 *  a toy runner wants compared). */
struct Metric
{
    std::string name;
    double value = 0.0;
};

using MetricVector = std::vector<Metric>;

/** Runs the workload under test with the given tie-break seed and
 *  returns its final metrics. */
using Runner = std::function<MetricVector(uint64_t tie_break_seed)>;

struct DeterminismOptions
{
    /**
     * Tie-break seeds to compare; the first is the baseline.  0 is the
     * production insertion order; the others are arbitrary nonzero
     * perturbations (values chosen so that even a two-event tie at
     * sequence numbers 0/1 flips order under at least one of them).
     */
    std::vector<uint64_t> seeds{0, 0x9e3779b97f4a7c15ULL,
                                0xc0ffee42c0ffee42ULL};

    /** Simulated warmup/measure window for checkRunDeterminism (kept
     *  short: order sensitivity shows up within microseconds). */
    double warmupUs = 3.0;
    double measureUs = 8.0;
};

/** One metric that changed under a permuted tie-break order. */
struct MetricDiff
{
    std::string name;
    uint64_t seed = 0;      //!< perturbation that exposed it
    double baseline = 0.0;  //!< value under options.seeds[0]
    double value = 0.0;     //!< value under `seed`
};

struct DeterminismReport
{
    bool deterministic = true;
    size_t metricsCompared = 0;
    size_t seedsRun = 0;
    std::vector<MetricDiff> diffs;
    util::DiagnosticList diagnostics;
};

/**
 * Run @p runner once per seed and diff every metric against the
 * baseline seed.  @p subject labels the diagnostics.
 */
DeterminismReport
checkDeterminism(const Runner &runner,
                 const DeterminismOptions &options = {},
                 const std::string &subject = "run");

/** Flatten a RunResult into named metrics: every field of its list
 *  but those tagged sim::kNotAMetric, by wire name, in list order. */
MetricVector runMetrics(const sim::RunResult &result);

/**
 * The production entry point: simulate @p workload x @p platform x
 * @p opts once per tie-break seed and diff the full RunResult.
 * Returns an error Status when the config cannot run at all (bad
 * variant, watchdog trip); order-divergence is reported in the
 * DeterminismReport, not as a Status.
 */
[[nodiscard]] util::Result<DeterminismReport>
checkRunDeterminism(const platforms::Platform &platform,
                    const workloads::Workload &workload,
                    const workloads::OptSet &opts,
                    const DeterminismOptions &options = {});

} // namespace lll::analysis

#endif // LLL_ANALYSIS_DETERMINISM_HH
