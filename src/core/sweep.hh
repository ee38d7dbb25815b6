/**
 * @file
 * The parallel sweep runner and the process-wide result cache behind
 * `lll sweep` / `lll table` / `lll reproduce` (DESIGN.md §11).
 *
 * A sweep fans simulated *stages* — one (platform, workload, opts)
 * variant each — out through the obs::Executor: the calling thread plus
 * `jobs - 1` helpers.  Stages share nothing mutable: a miss builds its
 * own Experiment (own System, event queue, RNG state) and, when the
 * caller wants telemetry, records into a private MetricRegistry and a
 * task-private SpanTracker.  After join, the runner folds per-stage
 * registries and span stats into the caller's, in stage order — the
 * merge-after-join contract — so a `--jobs 4` run is byte-identical to
 * `--jobs 1`, including every exporter.  A paper table is a plan of
 * stages (planPaperTables), one runStages() batch and the rows read
 * back off its outcomes (assemblePaperTables).
 *
 * The ResultCache memoizes simulated stages across experiments and
 * processes: the key captures everything the simulation is a pure
 * function of (platform, kernel-spec hash, applied opts, seed, window
 * lengths, core count), and a hit returns the stored StageMetrics
 * without building an Experiment; SweepRunner is the cache's only
 * client.  With a spill directory configured the cache persists
 * entries as flat JSON files, so a second process re-renders every
 * table without re-simulating anything.
 */

#ifndef LLL_CORE_SWEEP_HH
#define LLL_CORE_SWEEP_HH

#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/registry.hh"
#include "platforms/platform.hh"
#include "util/fields.hh"
#include "util/status.hh"
#include "workloads/workload.hh"

namespace lll::core
{

/** Stable FNV-1a hash of everything a KernelSpec tells the simulator;
 *  two specs with equal hashes simulate identically (cache key part). */
uint64_t hashKernelSpec(const sim::KernelSpec &spec);

/** Flat-JSON serialization of one StageMetrics (the cache spill
 *  format; one "section.field": value pair per line, version-tagged). */
std::string stageMetricsJson(const StageMetrics &m,
                             const std::string &key);

/** Parse the spill format back (util::parseJson); CorruptData on any
 *  missing or malformed field (an integer field must hold an exact
 *  non-negative integer), FailedPrecondition on a version/key mismatch
 *  (@p expect_key empty skips the key check). */
[[nodiscard]] util::Result<StageMetrics>
parseStageMetricsJson(const std::string &text,
                      const std::string &expect_key);

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

/**
 * Process-wide memo table for simulated stages.  Thread-safe; workers
 * of one sweep and sequential experiments in one process share it.
 *
 * Capacity policy (DESIGN.md §12): the in-memory table is LRU-bounded
 * by setMaxEntries() — an eviction drops the entry from memory only,
 * so a later lookup can still reload it from the spill dir — and the
 * spill dir is byte-bounded by setSpillBudget(), garbage-collected
 * oldest-mtime-first whenever a spill pushes it over budget.  Both
 * caps default to 0 (unbounded), preserving the one-shot CLI behavior;
 * the long-lived run service sets both.
 */
class ResultCache
{
  public:
    using Stats = CacheStats;

    /**
     * The memo key for one simulated stage: every input the simulated
     * StageMetrics is a pure function of.  Deterministic across runs.
     */
    static std::string stageKey(const platforms::Platform &platform,
                                const sim::KernelSpec &spec,
                                const workloads::OptSet &opts,
                                uint64_t seed, double warmupUs,
                                double measureUs, int coresUsed);

    /** Fetch @p key into @p out; false (and a miss counted) when the
     *  stage has to be simulated.  @p mine, when set, also receives
     *  every count this call adds to stats() — its hit or miss, and
     *  what a reload from the spill dir evicted — so concurrent
     *  callers can account for their own traffic. */
    bool lookup(const std::string &key, StageMetrics *out,
                Stats *mine = nullptr);

    /**
     * lookup() for every stage of @p stages at once, from memory only
     * and without waiting for the cache's lock: either each stage's
     * metrics land in @p out, in stage order, each counted as a hit
     * and touched in the LRU as lookup() would, or nothing is fetched,
     * counted or touched.  A stage held only in the spill dir is not
     * fetched: reading its file is lookup()'s work.
     */
    bool probe(std::span<const AdmittedStage> stages,
               std::vector<StageMetrics> *out);

    /** Memoize @p m under @p key (and spill it when configured);
     *  @p mine as for lookup(): the spill and what it evicted. */
    void insert(const std::string &key, const StageMetrics &m,
                Stats *mine = nullptr);

    /**
     * Persist entries under @p dir (created if missing) and serve
     * lookups from files found there.  Empty disables spilling.
     */
    [[nodiscard]] util::Status setSpillDir(const std::string &dir);

    /** Cap the in-memory table at @p cap entries, evicting least-
     *  recently-used beyond it.  0 = unbounded.  Shrinking below the
     *  current size evicts immediately. */
    void setMaxEntries(size_t cap);
    size_t maxEntries() const;

    /** Cap the spill dir at @p bytes, deleting oldest-mtime files
     *  first when a spill pushes it over.  0 = unbounded. */
    void setSpillBudget(uint64_t bytes);
    uint64_t spillBudget() const;

    /** Bytes currently occupied by spill files (0 without a dir). */
    uint64_t spillBytes() const;

    Stats stats() const;
    size_t size() const;
    void clear();

    /** The process-wide cache; a runner uses it when its
     *  SweepRunner::Params::cache points here. */
    static ResultCache &global();

  private:
    struct Entry
    {
        StageMetrics metrics;
        std::list<std::string>::iterator lruIt;
    };

    std::string spillPath(const std::string &key) const;
    /** Adds to @p mine what stats_ gained since @p before. */
    void reportLocked(Stats *mine, const Stats &before) const;
    void insertLocked(const std::string &key, const StageMetrics &m);
    void touchLocked(Entry &e);
    void enforceEntryCapLocked();
    void rescanSpillLocked();
    void gcSpillLocked();

    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
    std::list<std::string> lru_; //!< front = most recently used
    std::string spillDir_;
    size_t maxEntries_ = 0;
    uint64_t spillBudget_ = 0;
    uint64_t spillBytes_ = 0;
    Stats stats_;
};

/**
 * The request fields every stage-shaped front end shares: a serve run
 * or search line and `lll search`.  service::RunRequest and
 * search::SearchSpec derive from it.
 */
struct StageRequest
{
    std::string platformName;
    /** Exactly one of workloadName / (hasSpec, spec) is set. */
    std::string workloadName;
    bool hasSpec = false;
    sim::KernelSpec spec;
    bool randomDominated = false; //!< inline-spec analyzer class
    workloads::OptSet opts;
    int cores = 0;          //!< 0 = all of the platform's cores
    uint64_t seed = 7;
    double warmupUs = 0.0;  //!< 0 = the workload's default window
    double measureUs = 0.0; //!< 0 = the workload's default window
};

/** StageRequest's field list (util/fields.hh); the entries with help
 *  are also `lll search` flags. */
template <class V, util::RecordOf<StageRequest> R>
void
visitFields(V &v, R &r)
{
    v("platform", r.platformName, {.required = true});
    v("workload", r.workloadName, {.oneOf = true});
    v("spec", util::Optional{r.spec, r.hasSpec}, {.oneOf = true});
    v("random_dominated", r.randomDominated);
    v("opts", r.opts);
    v("cores", r.cores,
      {.lo = 0, .help = "cores driving the load (default: all)"});
    v("seed", r.seed, {.help = "simulation tie-break seed"});
    v("warmup_us", r.warmupUs,
      {.lo = 0, .help = "warmup window (default: workload's)"});
    v("measure_us", r.measureUs,
      {.lo = 0, .help = "measure window (default: workload's)"});
}

/** A StageRequest as a stage unit and the workload it points to. */
struct ResolvedRequest
{
    StageUnit unit;
    workloads::WorkloadPtr workload; //!< built for an inline spec
};

/** @p r's stage fields as a unit of @p workload on @p platform: the
 *  unit resolveRequest() builds, and each search candidate's. */
StageUnit requestUnit(const StageRequest &r, platforms::Platform platform,
                      const workloads::Workload &workload);

/** The StageRequest -> (platform, workload) lookup the run service and
 *  the searcher share: @p r's names looked up (@p platform, when set,
 *  stands in for r's) and its other fields copied as they are. */
[[nodiscard]] util::Result<ResolvedRequest>
resolveRequest(const StageRequest &r,
               const platforms::Platform *platform = nullptr);

/** @p r as one schema-1 `lll serve` request line (no newline), every
 *  field spelled by the list; @p id is left out when empty. */
std::string requestLine(const StageRequest &r, const std::string &id = {});

/**
 * Stage fan-out over the obs::Executor with deterministic merge.
 */
class SweepRunner
{
  public:
    struct Params
    {
        /** Threads working on the units, the caller included
         *  (clamped to [1, #units]), and on the operating points of a
         *  profile that must be characterized first.  Results and
         *  merged telemetry (bar the wall-clock `sweep.*` gauges) are
         *  identical for every value. */
        int jobs = 1;

        /** Stage memo table; nullptr runs uncached. */
        ResultCache *cache = nullptr;

        /**
         * When set, each unit records into a private registry and the
         * runner mergeFrom()s them into this one after join, in unit
         * order; per-unit span stats fold into the calling thread's
         * SpanTracker the same way.
         */
        obs::MetricRegistry *registry = nullptr;
    };

    /** One stage of a sweep (core/experiment.hh). */
    using StageUnit = core::StageUnit;

    /** The per-unit result of runStages(): a Status *per unit*, so one
     *  bad request never fails the rest of the batch. */
    struct StageOutcome
    {
        util::Status status;
        StageMetrics metrics; //!< meaningful only when status.ok()

        /** Host wall time from fan-out start until a worker picked
         *  this unit up — the unit's time in the work queue. */
        double queueWaitNs = 0.0;
        /** Host wall time the worker spent running the unit (its
         *  cache lookup, and on a miss the simulated stage). */
        double simulateNs = 0.0;

        /** This unit's own ResultCache traffic: its hits and misses
         *  and what its lookups and inserts evicted (all 0 without a
         *  cache). */
        ResultCache::Stats cache;
    };

    /** Each distinct platform's latency profile, or the error (in
     *  "profile for '<platform>'" context) that keeps it unusable. */
    using Profiles =
        std::map<std::string, util::Result<xmem::LatencyProfile>>;

    explicit SweepRunner(Params params) : params_(params) {}

    /**
     * Every distinct platform's profile among @p stages, fetched from
     * the xmem::ProfileStore (and measured when missing) once, in
     * stage order.  A caller that must refuse a whole batch over one
     * unusable profile checks these before it runs the stages.
     */
    Profiles loadProfiles(const std::vector<AdmittedStage> &stages) const;

    /**
     * Run one simulated stage per unit and return the outcomes in unit
     * order (never in completion order).  Every unit is admitted first
     * (admitStage), so a refused unit never costs a profile load or a
     * characterization, and only the admitted ones run.  Failures are
     * reported *per unit*: a unit that admission refuses, whose
     * profile cannot be loaded or whose run fails (a watchdog trip)
     * gets its error in its StageOutcome while the rest proceed.
     */
    std::vector<StageOutcome> runStages(const std::vector<StageUnit> &units);

    /** runStages() for stages admitStage() already accepted (the run
     *  service admits while it coalesces, the searcher while it
     *  enumerates) and a caller that may block. */
    std::vector<StageOutcome>
    runAdmitted(const std::vector<AdmittedStage> &stages)
    {
        return runAdmitted(stages, loadProfiles(stages));
    }

    /**
     * runAdmitted() for a caller that must not block: the outcomes of
     * @p stages when every platform's profile is already in the
     * xmem::ProfileStore, unchanged on disk, and passes runAdmitted()'s
     * check, and every stage is in the cache's memory
     * (ResultCache::probe).  Each hit is finished as runAdmitted()
     * finishes one, bar the stage span and the sweep.* gauges;
     * otherwise nullopt, with nothing loaded, counted or recorded.
     * Never measures, reads a file or simulates, so its simulateNs is
     * the probe's own wall time.
     */
    std::optional<std::vector<StageOutcome>>
    probeAdmitted(const std::vector<AdmittedStage> &stages) const;

    /** runAdmitted() on @p profiles instead of the profile store's,
     *  each checked once against its platform (validateInputs). */
    std::vector<StageOutcome>
    runAdmitted(const std::vector<AdmittedStage> &stages,
                const Profiles &profiles);

  private:
    Params params_;
};

/** One rendered paper table (Tables IV–IX): a workload's walk on one
 *  platform. */
struct PaperTable
{
    std::string platform;
    std::string workload;
    std::vector<TableRow> rows;
};

/**
 * The stages some paper walks need and the rows that read them.  Each
 * distinct (platform, workload, opts) variant is one stage, however
 * many rows name it; the stages of a walk do not depend on each other,
 * so the whole plan runs as one runStages() batch.
 */
struct PaperPlan
{
    struct Row
    {
        workloads::ExperimentRow walk; //!< the workload's paper row
        size_t source = 0;  //!< stage of walk.source
        size_t applied = 0; //!< stage of *walk.applied (when set)
    };
    struct Table
    {
        platforms::Platform platform;
        const workloads::Workload *workload = nullptr;
        std::vector<Row> rows;
    };
    std::vector<SweepRunner::StageUnit> stages;
    std::vector<Table> tables;
};

/**
 * Plan the paper walk of every workload on every platform: one table
 * per pair, workload-major so each workload's tables are contiguous,
 * and each table's stages, with default windows, cores and seed, in
 * the order its rows first name them.  The plan borrows the workloads:
 * @p workloads must outlive it.
 */
PaperPlan planPaperTables(std::span<const platforms::Platform> platforms,
                          std::span<const workloads::WorkloadPtr> workloads);

/**
 * The plan's tables, read off runStages(plan.stages): a row shows its
 * source stage's analysis, the measured speedup of its applied stage
 * (throughput ratio) and whether the recipe, advising at the source,
 * recommended an optimization the row adds.  Fails with the first
 * failing stage's Status, in plan order.
 */
[[nodiscard]] util::Result<std::vector<PaperTable>>
assemblePaperTables(const PaperPlan &plan,
                    const std::vector<SweepRunner::StageOutcome> &outcomes);

} // namespace lll::core

#endif // LLL_CORE_SWEEP_HH
