/**
 * @file
 * A hardware thread executing a kernel as a closed-loop load generator.
 *
 * The thread keeps at most `window` demand loads in flight (the MLP the
 * code exposes), separated by compute phases served by the shared core
 * model.  Memory-side limits — MSHR queues, prefetch coverage, loaded
 * memory latency — then determine the equilibrium issue rate, which is
 * exactly the mechanism Little's law describes.
 */

#ifndef LLL_SIM_THREAD_CONTEXT_HH
#define LLL_SIM_THREAD_CONTEXT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/core_model.hh"
#include "sim/event_queue.hh"
#include "sim/kernel_spec.hh"
#include "sim/op_stream.hh"
#include "sim/request.hh"
#include "util/stats.hh"

namespace lll::sim
{

class Cache;

/**
 * One phase of a thread's execution: a kernel plus how many memory ops
 * to run before moving to the next phase (round robin).  A whole
 * "program" of alternating routines is a list of phases — which is
 * exactly the situation where the paper's footnote-1 stationarity
 * caveat bites.
 */
struct PhaseSpec
{
    KernelSpec spec;
    /** Ops per visit before switching (0 = run forever). */
    uint64_t opsPerVisit = 0;
};

/**
 * One software/hardware thread bound to a core.
 */
class ThreadContext
{
  public:
    struct Params
    {
        int core = 0;
        unsigned thread = 0;        //!< SMT slot within the core
        unsigned lqSize = 64;       //!< hardware load-queue bound on MLP
        uint64_t threadSeed = 1;    //!< unique across the system
        uint64_t coreSeed = 1;      //!< shared by a core's threads
    };

    ThreadContext(const Params &params, const KernelSpec &spec,
                  EventQueue &eq, RequestPool &pool, CoreModel &core,
                  Cache &l1, Cache &l2);

    ThreadContext(const Params &params, std::vector<PhaseSpec> phases,
                  EventQueue &eq, RequestPool &pool, CoreModel &core,
                  Cache &l1, Cache &l2);

    /** Begin executing; call once before System::runChecked. */
    void start();

    /** Completion callback from the L1 for a demand op. */
    void opComplete(MemRequest *req);

    /** Retry hook the L1 fires when MSHR capacity frees. */
    void retry();

    /** Total memory ops issued since the last stats reset. */
    uint64_t opsIssued() const { return opsIssued_; }

    /** Logical work units completed since the last stats reset. */
    double workDone() const { return workDone_; }

    uint64_t swPrefetchesIssued() const { return swPrefIssued_; }

    /** Index of the phase currently executing (test aid). */
    size_t currentPhase() const { return phase_; }

    void resetStats();

  private:
    void computeDone();
    void tryIssue();
    void beginCompute();

    const KernelSpec &spec() const { return states_[phase_].phase.spec; }
    void maybeAdvancePhase();

    struct PhaseState
    {
        PhaseSpec phase;
        OpStream ops;
        uint64_t opIndex = 0;
        unsigned effWindow = 0;     //!< min(spec.window, lqSize)
    };

    Params params_;
    EventQueue &eq_;
    RequestPool &pool_;
    CoreModel &core_;
    Cache &l1_;
    Cache &l2_;

    std::vector<PhaseState> states_;
    size_t phase_ = 0;
    uint64_t opsThisVisit_ = 0;

    unsigned inFlight_ = 0;
    bool computeReady_ = false;
    bool waitingRetry_ = false;
    std::optional<Op> pendingOp_;

    uint64_t opsIssued_ = 0;
    double workDone_ = 0.0;
    uint64_t swPrefIssued_ = 0;
};

} // namespace lll::sim

#endif // LLL_SIM_THREAD_CONTEXT_HH
