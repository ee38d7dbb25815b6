/**
 * @file
 * Microbenchmark kernels + trial runner behind `lll bench`.
 *
 * The kernels cover the simulator's hot paths — event-queue
 * throughput and same-tick dispatch, MSHR allocate/deallocate,
 * stateless op generation, warm cache hits, and an end-to-end system
 * microstep, plain and with the telemetry sampler attached (the
 * sampler's overhead is the difference).  Each kernel processes one
 * *batch* per call; the runner times batches with the obs wall clock
 * (timer.hh), folds per-item latency into a Log2Histogram, and reports
 * events/sec per trial with min/median/IQR statistics.  The numbers
 * feed the BENCH_<rev>.json trajectory and the CI perf ratchet
 * (bench_report.hh).
 */

#ifndef LLL_PERF_MICROBENCH_HH
#define LLL_PERF_MICROBENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metric.hh"

namespace lll::perf
{

/**
 * One kernel's mutable benchmark state.  runBatch() executes one batch
 * of work and returns the number of items (events, ops, requests)
 * processed, so the runner can derive events/sec without knowing the
 * kernel's shape.
 */
class KernelInstance
{
  public:
    virtual ~KernelInstance() = default;
    virtual uint64_t runBatch() = 0;
};

/** A registered kernel: stable name, one-line description, factory. */
struct KernelInfo
{
    std::string name;
    std::string description;
    std::unique_ptr<KernelInstance> (*make)();
};

/** The built-in kernel registry, in fixed report order. */
const std::vector<KernelInfo> &kernels();

/** Look up a kernel by name; nullptr when unknown. */
const KernelInfo *findKernel(const std::string &name);

/** Trial-loop configuration. */
struct TrialParams
{
    int trials = 5;          //!< measured repetitions per kernel
    double warmupMs = 20.0;  //!< untimed warm-up before trial 1
    double measureMs = 50.0; //!< wall-time floor per trial
};

/** One kernel's measured result across all trials. */
struct KernelStats
{
    std::string name;
    int trials = 0;
    uint64_t batches = 0; //!< total batches across trials
    uint64_t items = 0;   //!< total items across trials

    /** Per-trial throughput, in trial order. */
    std::vector<double> trialEventsPerSec;

    // Trial statistics over trialEventsPerSec.
    double minEps = 0.0;
    double medianEps = 0.0;
    double maxEps = 0.0;
    double iqrEps = 0.0; //!< interquartile range (p75 - p25)

    /** Per-item latency distribution (batch wall ns / batch items). */
    obs::Log2Histogram itemNs;

    // Extracted from itemNs by runKernel(); plain fields so a report
    // parsed back from JSON (no histogram) carries them too.
    double p50ItemNs = 0.0;
    double p90ItemNs = 0.0;
    double p99ItemNs = 0.0;
};

/**
 * Linearly interpolated quantile of @p sorted (ascending).  Exposed
 * for the trial statistics and their tests; returns 0 when empty.
 */
double quantileSorted(const std::vector<double> &sorted, double q);

/** Run @p kernel under @p params and collect its statistics. */
KernelStats runKernel(const KernelInfo &kernel,
                      const TrialParams &params);

} // namespace lll::perf

#endif // LLL_PERF_MICROBENCH_HH
