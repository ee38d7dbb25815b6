/**
 * @file
 * Bank-parallel memory controller.
 *
 * Peak bandwidth equals banks * lineBytes / bankServiceNs; the idle
 * latency is frontLatencyNs + bankServiceNs + backLatencyNs.  Requests
 * hash to a bank and queue FCFS behind it, so loaded latency *emerges*
 * from contention — producing the rising bandwidth→latency curve that the
 * paper's X-Mem-based methodology measures and Little's law consumes.
 */

#ifndef LLL_SIM_MEM_CTRL_HH
#define LLL_SIM_MEM_CTRL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "sim/event_queue.hh"
#include "sim/mem_level.hh"
#include "sim/request.hh"
#include "util/stats.hh"

namespace lll::sim
{

class Cache;
class RequestTracer;

/**
 * The DRAM/HBM/MCDRAM model at the bottom of the hierarchy.
 */
class MemCtrl : public MemLevel
{
  public:
    struct Params
    {
        std::string name = "mem";
        double peakGBs = 128.0;      //!< theoretical peak bandwidth
        double frontLatencyNs = 25.0; //!< uncore/directory, request path
        double bankServiceNs = 24.0; //!< per-line occupancy of one bank
        double backLatencyNs = 4.0;  //!< response path
        unsigned lineBytes = 64;
        /** Banks are derived from peak bandwidth unless overridden. */
        unsigned banksOverride = 0;

        bool operator==(const Params &) const = default;
    };

    struct MemStats
    {
        Counter readLines;
        Counter writeLines;
        Counter demandReadLines;     //!< reads triggered by demand misses
        Counter hwPrefetchLines;
        Counter swPrefetchLines;
        Average readLatencyNs;       //!< arrival → response, reads only
        /** Full latency distribution (5 ns buckets). */
        Histogram readLatencyHist{5.0, 512};
        uint64_t busyTicks = 0;      //!< sum of bank service time

        void reset();
    };

    MemCtrl(const Params &params, EventQueue &eq, RequestPool &pool);

    /** The bank count a controller built from @p params has: the
     *  override when set, else banks * lineBytes / serviceNs == peak
     *  GB/s, rounded to nearest. */
    static unsigned banksFor(const Params &params);

    // MemLevel interface.  The controller never refuses a request.
    bool tryAccess(MemRequest *req) override;
    void addRetryWaiter(uint64_t lineAddr, EventFn cb) override;

    /** Attach an optional request tracer (null to detach). */
    void setTracer(RequestTracer *tracer) { tracer_ = tracer; }

    const Params &params() const { return params_; }
    unsigned banks() const { return static_cast<unsigned>(banks_.size()); }
    const MemStats &stats() const { return stats_; }

    /** Outstanding-request level, for the TMA-style occupancy heuristic. */
    double avgOutstanding(Tick window_start, Tick now) const
    {
        return outstanding_.mean(window_start, now);
    }

    /** Reads currently in flight (instantaneous). */
    double outstandingNow() const { return outstanding_.current(); }

    /** Banks still busy at @p now — the channel-queue depth proxy. */
    unsigned busyBanks(Tick now) const;

    /** Total bytes moved (reads + writes) since the last stats reset. */
    double bytesTransferred() const;

    /**
     * Publish controller metrics under @p prefix.  Achieved bandwidth,
     * outstanding reads and busy banks are sampler-driven time series;
     * line counts snapshot at export.
     */
    void registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix,
                         std::vector<std::string> &names) const;

    /** Fraction of bank-time busy over the window (0..1). */
    double utilization(Tick window_start, Tick now) const;

    /** Achieved bandwidth in GB/s over the window. */
    double achievedGBs(Tick window_start, Tick now) const;

    void resetStats(Tick now);

  private:
    unsigned bankOf(uint64_t lineAddr) const;

    Params params_;
    EventQueue &eq_;
    RequestPool &pool_;
    RequestTracer *tracer_ = nullptr;
    std::vector<Tick> banks_;       //!< per-bank busy-until time
    Tick frontLat_;
    Tick backLat_;
    Tick serviceLat_;
    MemStats stats_;
    TimeWeightedStat outstanding_;
};

} // namespace lll::sim

#endif // LLL_SIM_MEM_CTRL_HH
