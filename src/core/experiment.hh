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

class ResultCache;

/** ResultCache counters: the whole cache's, or one caller's share. */
struct CacheStats
{
    uint64_t hits = 0;      //!< lookups served (memory or disk)
    uint64_t misses = 0;    //!< lookups that had to simulate
    uint64_t diskLoads = 0; //!< hits satisfied from the spill dir
    uint64_t spills = 0;    //!< entries written to the spill dir
    uint64_t evictions = 0; //!< in-memory entries LRU-evicted
    uint64_t spillEvictions = 0; //!< spill files GC-deleted

    CacheStats &operator+=(const CacheStats &o);
};

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

/** The gauges a stage of variant @p label publishes, simulated or
 *  served from the cache: analyzer.variant.<label>.{n_avg,bw_gbps}. */
void recordVariantGauges(obs::MetricRegistry &registry,
                         const std::string &label, const Analysis &a);

/**
 * One (platform, workload) configuration, checked once by create(),
 * whose admitted stages stage() simulates.
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
         * per-variant verdicts; each stage runs under a span
         * `stage[<label>]` with `simulate`/`profile`/`analyze` phases
         * nested inside.
         */
        obs::MetricRegistry *registry = nullptr;

        /**
         * Cross-experiment memo table (core/sweep.hh).  A stage whose
         * key is cached is returned without simulating — its
         * simulate/profile/analyze spans never open — and a simulated
         * stage is inserted for the next experiment or process.
         */
        ResultCache *resultCache = nullptr;
    };

    /**
     * The only way in: verifies the profile matches the platform, the
     * one check that needs a profile (admitStage() made the others).
     */
    [[nodiscard]] static util::Result<Experiment>
    create(const platforms::Platform &platform,
           const workloads::Workload &workload, xmem::LatencyProfile profile,
           Params params);

    /**
     * Simulate (or fetch from Params::resultCache under its stageKey)
     * the admitted stage @p s of this configuration, built with
     * Params::seed.  A run that fails — the forward-progress watchdog
     * trips, say — is this stage's error, never the process's.
     */
    [[nodiscard]] util::Result<StageMetrics> stage(const AdmittedStage &s);

    /** This experiment's own ResultCache traffic (all 0 without a
     *  cache). */
    const CacheStats &resultCacheStats() const
    {
        return cacheStats_;
    }

  private:
    Experiment(const platforms::Platform &platform,
               const workloads::Workload &workload,
               xmem::LatencyProfile profile, Params params);

    platforms::Platform platform_;
    const workloads::Workload &workload_;
    Analyzer analyzer_;
    Params params_;
    CacheStats cacheStats_;
};

} // namespace lll::core

#endif // LLL_CORE_EXPERIMENT_HH
