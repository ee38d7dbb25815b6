/**
 * @file
 * Core compute model shared by the SMT threads of one core.
 *
 * Two constraints shape compute throughput, matching how SMT behaves in
 * the paper's case studies:
 *
 *  - a per-thread pipeline rate (`singleThreadRate`): one thread alone
 *    cannot retire more than this fraction of the core's work per cycle
 *    (dependences, issue restrictions).  This is why SMT helps
 *    compute-bound codes like CoMD on KNL;
 *  - an aggregate capacity (`computeCapacity`): all threads together
 *    cannot exceed it, so SMT gains saturate once the core is full.
 */

#ifndef LLL_SIM_CORE_MODEL_HH
#define LLL_SIM_CORE_MODEL_HH

#include <array>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "sim/event_queue.hh"
#include "util/stats.hh"

namespace lll::sim
{

/**
 * One physical core: a compute server shared by its hardware threads.
 */
class CoreModel
{
  public:
    struct Params
    {
        int id = 0;
        double freqGHz = 2.0;
        /**
         * Aggregate compute throughput (work-cycles per core cycle) with
         * k active hardware threads, indexed by k (entry 0 unused).
         * Entry 1 is what one thread alone sustains; the curve rising
         * with k is precisely why SMT pays on narrow cores like KNL.
         * Zero entries inherit the previous one.
         */
        std::array<double, 5> smtCapacity{0.0, 0.85, 1.0, 0.0, 0.0};
        /** Hardware threads on this core. */
        unsigned threads = 1;
    };
    static_assert(std::tuple_size_v<decltype(Params::smtCapacity)> ==
                      kMaxSmtWays + 1,
                  "smtCapacity indexes 1..kMaxSmtWays: keep it in sync "
                  "with the schedThreadKey packing ceiling");

    CoreModel(const Params &params, EventQueue &eq);

    /**
     * Spend @p cycles of compute on behalf of hardware thread @p thread,
     * then invoke @p done.  Requests from one thread must be issued
     * sequentially (the thread model guarantees program order).
     */
    void compute(unsigned thread, double cycles, EventFn done);

    /** Duration of one core cycle in ticks. */
    Tick period() const { return period_; }

    const Params &params() const { return params_; }

    /** Ticks the shared compute server has been busy since reset. */
    Tick busyTicks() const { return busyTicks_; }

    void resetStats();

    /**
     * Publish compute-server metrics under @p prefix.  busy_frac and
     * stall_frac are sampler-driven rates (fraction of wall time the
     * server was busy / threads were queued between snapshots).
     */
    void registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix,
                         std::vector<std::string> &names) const;

  private:
    Params params_;
    EventQueue &eq_;
    Tick period_;
    double capacity_;          //!< aggregate rate at configured threads
    double singleThreadRate_;  //!< per-thread pipeline rate
    Tick serverFreeAt_ = 0;
    std::vector<Tick> threadGate_;
    Tick busyTicks_ = 0;
    Tick stallTicks_ = 0;
};

} // namespace lll::sim

#endif // LLL_SIM_CORE_MODEL_HH
