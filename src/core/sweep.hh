/**
 * @file
 * The parallel sweep runner and the process-wide result cache behind
 * `lll sweep` / `lll table` / `lll reproduce` (DESIGN.md §11).
 *
 * A sweep fans platform x workload experiment *units* out through the
 * core::Executor: the calling thread plus `jobs - 1` helpers.  Units
 * share nothing mutable: each builds its own Experiment (own System,
 * event queue, RNG state) and, when the caller wants telemetry, records
 * into a private MetricRegistry and a task-private SpanTracker.  After
 * join, the runner folds per-unit registries and span stats into the
 * caller's, in unit order — the merge-after-join contract — so a
 * `--jobs 4` run is byte-identical to `--jobs 1`, including every
 * exporter.
 *
 * The ResultCache memoizes simulated stages across experiments and
 * processes: the key captures everything the simulation is a pure
 * function of (platform, kernel-spec hash, applied opts, seed, window
 * lengths, core count), and a hit returns the stored StageMetrics
 * without touching the event queue.  With a spill directory configured
 * the cache persists entries as flat JSON files, so a second process
 * re-renders every table without re-simulating anything.
 */

#ifndef LLL_CORE_SWEEP_HH
#define LLL_CORE_SWEEP_HH

#include <list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "platforms/platform.hh"
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

/** Parse the spill format back; CorruptData on any missing or
 *  malformed field, FailedPrecondition on a version/key mismatch
 *  (@p expect_key empty skips the key check). */
[[nodiscard]] util::Result<StageMetrics>
parseStageMetricsJson(const std::string &text,
                      const std::string &expect_key);

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
    struct Stats
    {
        uint64_t hits = 0;      //!< lookups served (memory or disk)
        uint64_t misses = 0;    //!< lookups that had to simulate
        uint64_t diskLoads = 0; //!< hits satisfied from the spill dir
        uint64_t spills = 0;    //!< entries written to the spill dir
        uint64_t evictions = 0; //!< in-memory entries LRU-evicted
        uint64_t spillEvictions = 0; //!< spill files GC-deleted
    };

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
     *  stage has to be simulated. */
    bool lookup(const std::string &key, StageMetrics *out);

    /** Memoize @p m under @p key (and spill it when configured). */
    void insert(const std::string &key, const StageMetrics &m);

    /**
     * Persist entries under @p dir (created if missing) and serve
     * lookups from files found there.  Empty disables spilling.
     */
    [[nodiscard]] util::Status setSpillDir(const std::string &dir);
    const std::string &spillDir() const { return spillDir_; }

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

    /** The process-wide cache every Experiment defaults to not using;
     *  opt in via Experiment::Params::resultCache. */
    static ResultCache &global();

  private:
    struct Entry
    {
        StageMetrics metrics;
        std::list<std::string>::iterator lruIt;
    };

    std::string spillPath(const std::string &key) const;
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

/** One experiment of a sweep. @p workload must outlive the runner. */
struct SweepUnit
{
    platforms::Platform platform;
    const workloads::Workload *workload = nullptr;
};

/**
 * Experiment fan-out over the core::Executor with deterministic merge.
 */
class SweepRunner
{
  public:
    struct Params
    {
        /** Threads working on the units, the caller included
         *  (clamped to [1, #units]).  Results and merged telemetry are
         *  identical for every value. */
        int jobs = 1;

        /** Forwarded to each unit's Experiment. */
        double warmupUs = 0.0;
        double measureUs = 0.0;
        int coresUsed = 0;
        uint64_t seed = 7;

        /** Stage memo table; nullptr runs uncached. */
        ResultCache *cache = nullptr;

        /**
         * When set, each unit records into a private registry and the
         * runner mergeFrom()s them into this one after join, in unit
         * order; per-unit span stats fold into the calling thread's
         * SpanTracker the same way.
         */
        obs::MetricRegistry *registry = nullptr;
        obs::Sampler::Params sampler;
    };

    /** The rendered paper walk of one unit. */
    struct UnitResult
    {
        std::string platform;
        std::string workload;
        std::vector<TableRow> rows;
    };

    /**
     * One *stage* of a sweep: a single (platform, workload, opts)
     * variant with its own windows/cores/seed.  This is the unit the
     * run service shards after coalescing duplicate requests — unlike
     * SweepUnit, which walks a whole paper table per entry.
     * @p workload must outlive the runner.
     */
    struct StageUnit
    {
        platforms::Platform platform;
        const workloads::Workload *workload = nullptr;
        workloads::OptSet opts;
        double warmupUs = 0.0;  //!< 0 = the workload's default window
        double measureUs = 0.0; //!< 0 = the workload's default window
        int coresUsed = 0;      //!< 0 = all of the platform's cores
        uint64_t seed = 7;
    };

    /** The per-unit result of runStages(): a Status *per unit*, so one
     *  bad request never fails the rest of the batch. */
    struct StageOutcome
    {
        util::Status status;
        StageMetrics metrics; //!< meaningful only when status.ok()

        /** Host wall time from fan-out start until a worker picked
         *  this unit up — the unit's time in the work queue. */
        double queueWaitNs = 0.0;
        /** Host wall time the worker spent running the unit
         *  (Experiment creation + simulated stage). */
        double simulateNs = 0.0;
    };

    explicit SweepRunner(Params params) : params_(params) {}

    /**
     * Run every unit and return results in unit order (never in
     * completion order).  Latency profiles are fetched from the
     * xmem::ProfileStore (and measured when missing) once per distinct
     * platform *before* the fan-out.  Fails with the first failing
     * unit's Status, in unit order.
     */
    [[nodiscard]] util::Result<std::vector<UnitResult>>
    run(const std::vector<SweepUnit> &units);

    /**
     * Run one simulated stage per unit with the same share-nothing
     * fan-out and merge-after-join contract as run(), but report
     * failures *per unit*: a unit whose profile cannot be loaded or
     * whose Experiment fails gets its error in its StageOutcome while
     * the rest of the batch proceeds.  Results are in unit order.
     */
    std::vector<StageOutcome>
    runStages(const std::vector<StageUnit> &units);

  private:
    Params params_;
};

/** The registry-wide unit list (every workload x every platform,
 *  workload-major so each paper table's units are contiguous), shared
 *  by `lll sweep` and `lll reproduce`.  The units borrow the
 *  workloads: @p workloads must outlive the returned vector. */
std::vector<SweepUnit>
sweepUnits(const std::vector<platforms::Platform> &platforms,
           const std::vector<workloads::WorkloadPtr> &workloads);

} // namespace lll::core

#endif // LLL_CORE_SWEEP_HH
