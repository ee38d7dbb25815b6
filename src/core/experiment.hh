/**
 * @file
 * The stage step: simulates one optimization state of a workload on a
 * platform, profiles it with portable counters and analyzes it with
 * Little's law.  SweepRunner::runStages (core/sweep.hh) runs one per
 * stage unit; the rows of the paper's Tables IV–IX are assembled from
 * such stages: the paper's columns — observed bandwidth with percent of
 * peak, loaded latency from the X-Mem profile, the Little's-law n_avg —
 * plus the measured speedup of the optimization tried on top.
 */

#ifndef LLL_CORE_EXPERIMENT_HH
#define LLL_CORE_EXPERIMENT_HH

#include <string>
#include <vector>

#include "core/analyzer.hh"
#include "counters/counter_bank.hh"
#include "obs/registry.hh"
#include "platforms/platform.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"
#include "xmem/latency_profile.hh"

namespace lll::core
{

/** One simulated optimization state of a workload. */
struct StageMetrics
{
    workloads::OptSet opts;
    std::string label;
    sim::RunResult run;
    counters::RoutineProfile profile;
    Analysis analysis;
    /** Work units per second — the speedup basis. */
    double throughput = 0.0;
};

/**
 * Speedup at or above which a tried optimization counts as having
 * helped when the recipe's verdict is scored against the outcome.  The
 * paper counts its 1.02-1.03x SMT rows as wins; match that.
 */
constexpr double kHelpedSpeedup = 1.03;

/** One rendered table row (paper Tables IV–IX shape). */
struct TableRow
{
    std::string source;        //!< variant label
    double bwGBs = 0.0;
    double pctPeak = 0.0;
    double latencyNs = 0.0;
    double nAvg = 0.0;
    std::string optLabel;      //!< optimization tried ("-" for none)
    double speedup = 0.0;      //!< measured; 0 when none tried
    double paperSpeedup = 0.0; //!< the paper's number for comparison
    /** The recipe, advising at the source state, recommended one of
     *  the optimizations tried in this row (false when none tried). */
    bool recipeRecommended = false;
};

/**
 * One stage: a single (platform, workload, opts) variant with its own
 * windows, cores and seed, the unit a paper table plans and the run
 * service shards.  @p workload must outlive the run.
 */
struct StageUnit
{
    platforms::Platform platform;
    const workloads::Workload *workload = nullptr;
    workloads::OptSet opts;
    double warmupUs = 0.0;  //!< 0 = the workload's default window
    double measureUs = 0.0; //!< 0 = the workload's default window
    int coresUsed = 0;      //!< 0 = Platform::defaultCores()
    uint64_t seed = 7;
    /** The unit's ResultCache::stageKey, set by admitStage(); a caller
     *  leaves it empty. */
    std::string stageKey = {};
};

/** A StageUnit admitStage() accepted: defaults filled in, stageKey
 *  set, and what the checks built kept for the run. */
struct AdmittedStage : StageUnit
{
    sim::SystemParams sys; //!< at coresUsed and the opts' SMT ways
    sim::KernelSpec spec;  //!< the applied variant's
};

/**
 * Stage admission, the one place a stage's defaults are filled in and
 * its static checks run, before any profile loads: the cores and SMT
 * ways must fit the platform, the windows must not be negative, and
 * the base variant must not be statically vacuous (LLL-LINT-102/106,
 * core/bounds.hh) — such a config would simulate fine but every
 * Little's-law conclusion drawn from it would be noise.  A refusal
 * is in "stage unit <platform>/<workload>" context.
 */
[[nodiscard]] util::Result<AdmittedStage> admitStage(StageUnit unit);

/**
 * One (platform, workload) configuration whose admitted stages stage()
 * simulates; SweepRunner looks each stage up in its ResultCache first.
 */
class Experiment
{
  public:
    struct Params
    {
        uint64_t seed = 7; //!< the simulation seed of every stage

        /**
         * When set, every simulated stage attaches its telemetry here
         * (System::attachObservability) and the analyzer publishes its
         * verdicts; the `simulate`/`profile`/`analyze` phases run
         * under spans of those names.
         */
        obs::MetricRegistry *registry = nullptr;
    };

    /** Verifies the profile matches the platform, the one check that
     *  needs a profile (admitStage() made the others); SweepRunner
     *  makes it once per platform of a batch instead. */
    [[nodiscard]] static util::Result<Experiment>
    create(const platforms::Platform &platform,
           const workloads::Workload &workload, xmem::LatencyProfile profile,
           Params params);

    /**
     * Simulate, profile and analyze the admitted stage @p s of this
     * configuration, built with Params::seed.  A run that fails — the
     * forward-progress watchdog trips, say — is this stage's error,
     * never the process's.
     */
    [[nodiscard]] util::Result<StageMetrics> stage(const AdmittedStage &s);

  private:
    friend class SweepRunner;

    Experiment(const platforms::Platform &platform,
               const workloads::Workload &workload,
               xmem::LatencyProfile profile, Params params);

    const workloads::Workload &workload_;
    Analyzer analyzer_;
    Params params_;
};

} // namespace lll::core

#endif // LLL_CORE_EXPERIMENT_HH
