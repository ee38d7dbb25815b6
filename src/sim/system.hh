/**
 * @file
 * Whole-node assembly: cores, private L1/L2 (+ optional shared LLC), the
 * L2 stream prefetchers and the memory controller, plus run control with
 * warmup/measurement windows.
 *
 * A System executes one KernelSpec across its cores/threads — modelling
 * the paper's methodology of profiling one routine at a time on a loaded
 * node ("the data must be collected in a loaded run", §III-D).
 */

#ifndef LLL_SIM_SYSTEM_HH
#define LLL_SIM_SYSTEM_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "util/fields.hh"
#include "util/status.hh"
#include "sim/cache.hh"
#include "sim/core_model.hh"
#include "sim/event_queue.hh"
#include "sim/kernel_spec.hh"
#include "sim/mem_ctrl.hh"
#include "sim/request.hh"
#include "sim/stream_prefetcher.hh"
#include "sim/thread_context.hh"

namespace lll::sim
{

/**
 * Forward-progress watchdog knobs (see System::runChecked).
 *
 * Every cadence of simulated time the watchdog counts the events the
 * queue processed since its last check, nets out its own housekeeping
 * (the watchdog and sampler events), and records a strike when nothing
 * real ran.  maxStrikes consecutive strikes abort the run with a
 * diagnostic snapshot — the "simulation is wedged" signal for a
 * service deployment.
 */
struct WatchdogParams
{
    /** Check period in simulated microseconds. */
    double cadenceUs = 5.0;
    /** Consecutive no-progress checks before the run is declared
     *  wedged. */
    unsigned maxStrikes = 2;

    bool operator==(const WatchdogParams &) const = default;
};

/**
 * Hardware description of a node, sufficient to build a System.
 */
struct SystemParams
{
    std::string name = "node";
    int cores = 4;
    unsigned threadsPerCore = 1;
    double freqGHz = 2.0;
    unsigned lineBytes = 64;
    unsigned lqSize = 64;

    /** Core compute throughput by active SMT ways (see CoreModel). */
    std::array<double, 5> smtCapacity{0.0, 0.85, 1.0, 0.0, 0.0};

    Cache::Params l1;
    Cache::Params l2;
    bool hasL3 = false;
    Cache::Params l3;

    bool l2PrefetcherEnabled = true;
    StreamPrefetcher::Params pf;

    MemCtrl::Params mem;

    WatchdogParams watchdog;

    uint64_t seed = 1;

    /** Permutes pop order of equal-tick events (0 = insertion order);
     *  only the determinism checker should set this — see
     *  EventQueue::setTieBreakSeed(). */
    uint64_t tieBreakSeed = 0;

    bool operator==(const SystemParams &) const = default;
};

/**
 * Everything a measurement window yields; the raw material the counters
 * layer and the analyzer consume.
 */
struct RunResult
{
    double measureSeconds = 0.0;

    // Performance
    double workDone = 0.0;       //!< logical work units in the window
    double throughput = 0.0;     //!< work units per second
    uint64_t opsIssued = 0;

    // Memory traffic
    double readGBs = 0.0;
    double writeGBs = 0.0;
    double totalGBs = 0.0;
    double demandFraction = 1.0; //!< demand share of memory reads
    double memUtilization = 0.0;
    double avgMemLatencyNs = 0.0; //!< true in-sim loaded latency (reads)
    double p50MemLatencyNs = 0.0;
    double p95MemLatencyNs = 0.0;
    double p99MemLatencyNs = 0.0;
    double avgMemOutstanding = 0.0;

    // MSHR ground truth (per-core averages)
    double avgL1MshrOccupancy = 0.0;
    double avgL2MshrOccupancy = 0.0;
    /** The highest occupancy of any core's queue within the measure
     *  window only: the warmup's peak is not in it (the whole run's is
     *  MshrQueue::peakOccupancy()). */
    double maxL1MshrOccupancy = 0.0;
    double maxL2MshrOccupancy = 0.0;
    uint64_t l1FullStalls = 0;
    uint64_t l2FullStalls = 0;

    // Cache behaviour
    uint64_t l1DemandMisses = 0;
    uint64_t l1DemandHits = 0;
    uint64_t l2DemandMisses = 0;
    uint64_t l2DemandHits = 0;
    uint64_t hwPrefIssued = 0;
    uint64_t hwPrefUseful = 0;
    uint64_t swPrefIssued = 0;
    uint64_t l2PrefetchDropped = 0;
    uint64_t memReadLines = 0;
    uint64_t memWriteLines = 0;
    uint64_t memHwPrefetchLines = 0;
    uint64_t memSwPrefetchLines = 0;

    uint64_t eventsProcessed = 0;
};

/** Tag of the RunResult entries analysis::runMetrics() leaves out. */
constexpr unsigned kNotAMetric = 1u << 0;

/** RunResult's field list (util/fields.hh): spill keys, determinism
 *  metric names and their order. */
template <class V, util::RecordOf<RunResult> R>
void
visitFields(V &v, R &r)
{
    v("measure_seconds", r.measureSeconds);
    v("work_done", r.workDone);
    v("throughput", r.throughput);
    v("ops_issued", r.opsIssued);
    v("read_gbs", r.readGBs);
    v("write_gbs", r.writeGBs);
    v("total_gbs", r.totalGBs);
    v("demand_fraction", r.demandFraction);
    v("mem_utilization", r.memUtilization);
    v("avg_mem_latency_ns", r.avgMemLatencyNs);
    v("p50_mem_latency_ns", r.p50MemLatencyNs);
    v("p95_mem_latency_ns", r.p95MemLatencyNs);
    v("p99_mem_latency_ns", r.p99MemLatencyNs);
    v("avg_mem_outstanding", r.avgMemOutstanding);
    v("avg_l1_mshr_occupancy", r.avgL1MshrOccupancy);
    v("avg_l2_mshr_occupancy", r.avgL2MshrOccupancy);
    v("max_l1_mshr_occupancy", r.maxL1MshrOccupancy);
    v("max_l2_mshr_occupancy", r.maxL2MshrOccupancy);
    v("l1_full_stalls", r.l1FullStalls);
    v("l2_full_stalls", r.l2FullStalls);
    v("l1_demand_misses", r.l1DemandMisses);
    v("l1_demand_hits", r.l1DemandHits);
    v("l2_demand_misses", r.l2DemandMisses);
    v("l2_demand_hits", r.l2DemandHits);
    v("hw_pref_issued", r.hwPrefIssued);
    v("hw_pref_useful", r.hwPrefUseful);
    v("sw_pref_issued", r.swPrefIssued);
    v("l2_prefetch_dropped", r.l2PrefetchDropped);
    v("mem_read_lines", r.memReadLines);
    v("mem_write_lines", r.memWriteLines);
    v("mem_hw_prefetch_lines", r.memHwPrefetchLines);
    v("mem_sw_prefetch_lines", r.memSwPrefetchLines);
    v("events_processed", r.eventsProcessed, {.tags = kNotAMetric});
}

/**
 * A simulated node running one kernel.
 */
class System
{
  public:
    System(const SystemParams &params, const KernelSpec &spec);

    /** Multi-phase variant: threads cycle through @p phases round robin
     *  (whole-program emulation; see PhaseSpec). */
    System(const SystemParams &params, std::vector<PhaseSpec> phases);

    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run the kernel for @p warmup_us of simulated time, reset all
     * statistics, run @p measure_us more, and report the window.
     *
     * A DeadlineExceeded error (carrying a diagnostic snapshot of the
     * queue and MSHR state) is returned when the forward-progress
     * watchdog declares the event queue wedged; `sim_errors_total` is
     * incremented on the attached registry, if any.
     */
    [[nodiscard]] util::Result<RunResult> runChecked(double warmup_us,
                                       double measure_us);

    /** runChecked(), fatal on error.  Kept only for the frozen
     *  benchmark (perfbench); everything else calls runChecked(). */
    RunResult run(double warmup_us, double measure_us);

    // Component access for tests and the counters layer.
    MemCtrl &mem() { return *mem_; }
    Cache &l1(int core) { return *l1s_.at(core); }
    Cache &l2(int core) { return *l2s_.at(core); }
    Cache *l3() { return l3_.get(); }
    CoreModel &core(int core) { return *cores_.at(core); }
    ThreadContext &thread(int core, unsigned t);
    StreamPrefetcher *prefetcher(int core);
    const SystemParams &params() const { return params_; }
    const KernelSpec &spec() const { return phases_.front().spec; }
    const std::vector<PhaseSpec> &phases() const { return phases_; }
    RequestPool &pool() { return pool_; }

    /** Reset all statistics at the current tick. */
    void resetStats();

    /**
     * Publish the node's telemetry into @p registry and start a
     * periodic sampling event on the event queue: MSHR occupancies,
     * achieved bandwidth, memory queue depth and core busy/stall
     * fractions become time series; cache/controller counters snapshot
     * at export time.  Callback gauges are frozen (keeping their last
     * value) when this System is destroyed, so the metrics survive the
     * run; @p registry itself must therefore outlive this System.
     * Call at most once per System.
     */
    void attachObservability(obs::MetricRegistry &registry,
                             obs::Sampler::Params params = {});

    /** The sampler driving the time series (null until attached). */
    obs::Sampler *sampler() { return sampler_.get(); }

    /**
     * One-line diagnostic snapshot of live simulator state (tick,
     * queue depth, per-core MSHR occupancy, memory outstanding) — what
     * the watchdog attaches to its error and `lll selftest` prints.
     */
    std::string diagnosticSnapshot() const;

  private:
    void scheduleSample();
    void scheduleWatchdog();
    SystemParams params_;
    std::vector<PhaseSpec> phases_;
    EventQueue eq_;
    RequestPool pool_;

    std::unique_ptr<MemCtrl> mem_;
    std::unique_ptr<Cache> l3_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<std::unique_ptr<StreamPrefetcher>> pfs_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    std::vector<std::unique_ptr<ThreadContext>> threads_;

    obs::MetricRegistry *obsRegistry_ = nullptr;
    std::unique_ptr<obs::Sampler> sampler_;
    std::vector<std::string> obsNames_;

    bool started_ = false;

    // Forward-progress watchdog state.
    bool wdScheduled_ = false;
    uint64_t wdLastProcessed_ = 0;
    unsigned wdStrikes_ = 0;
    bool wdTripped_ = false;
    std::string wdDiagnostic_;
};

} // namespace lll::sim

#endif // LLL_SIM_SYSTEM_HH
