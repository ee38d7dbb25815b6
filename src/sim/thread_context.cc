#include "sim/thread_context.hh"

#include <algorithm>

#include "sim/cache.hh"
#include "util/logging.hh"

namespace lll::sim
{

ThreadContext::ThreadContext(const Params &params, const KernelSpec &spec,
                             EventQueue &eq, RequestPool &pool,
                             CoreModel &core, Cache &l1, Cache &l2)
    : ThreadContext(params, std::vector<PhaseSpec>{PhaseSpec{spec, 0}},
                    eq, pool, core, l1, l2)
{
}

ThreadContext::ThreadContext(const Params &params,
                             std::vector<PhaseSpec> phases,
                             EventQueue &eq, RequestPool &pool,
                             CoreModel &core, Cache &l1, Cache &l2)
    : params_(params), eq_(eq), pool_(pool), core_(core), l1_(l1),
      l2_(l2)
{
    lll_assert(!phases.empty(), "thread needs at least one phase");
    states_.reserve(phases.size());
    for (PhaseSpec &p : phases) {
        lll_assert(p.spec.window >= 1, "kernel window must be >= 1");
        OpStream ops(p.spec, params_.threadSeed, params_.coreSeed);
        PhaseState st{std::move(p), std::move(ops), 0, 0};
        st.effWindow = std::min(st.phase.spec.window, params_.lqSize);
        states_.push_back(std::move(st));
    }
}

void
ThreadContext::start()
{
    beginCompute();
}

void
ThreadContext::maybeAdvancePhase()
{
    const PhaseState &st = states_[phase_];
    if (states_.size() < 2 || st.phase.opsPerVisit == 0)
        return;
    if (opsThisVisit_ >= st.phase.opsPerVisit) {
        opsThisVisit_ = 0;
        phase_ = (phase_ + 1) % states_.size();
        // Any ops still in flight from the previous phase keep draining;
        // the window check below uses the new phase's limit, like a real
        // routine boundary.
        pendingOp_.reset();
    }
}

void
ThreadContext::beginCompute()
{
    const KernelSpec &k = spec();
    double cycles = k.computeCyclesPerOp;
    if (k.swPrefetchL2) {
        Op fut = states_[phase_].ops.at(states_[phase_].opIndex +
                                        k.swPrefetchDistance);
        if (fut.swPrefetchable)
            cycles += k.swPrefetchOverheadCycles;
    }
    core_.compute(params_.thread, cycles, [this] { computeDone(); });
}

void
ThreadContext::computeDone()
{
    computeReady_ = true;
    tryIssue();
}

void
ThreadContext::tryIssue()
{
    if (!computeReady_)
        return;

    // An L1 retry is already registered: let it do the issuing.  Issuing
    // from another trigger (a same-tick load completion, say) would make
    // the stall accounting depend on which event popped first.
    if (waitingRetry_)
        return;

    PhaseState &st = states_[phase_];
    const KernelSpec &k = st.phase.spec;

    if (!pendingOp_)
        pendingOp_ = st.ops.at(st.opIndex);

    if (pendingOp_->type == ReqType::DemandLoad &&
        inFlight_ >= st.effWindow) {
        return;   // window full; a completion will re-trigger us
    }

    MemRequest *req = pool_.alloc();
    req->lineAddr = pendingOp_->lineAddr;
    req->type = pendingOp_->type;
    req->core = params_.core;
    req->thread = static_cast<int>(params_.thread);
    req->issued = eq_.now();
    req->requester = this;

    if (!l1_.tryAccess(req)) {
        pool_.free(req);
        if (!waitingRetry_) {
            waitingRetry_ = true;
            l1_.addRetryWaiter(pendingOp_->lineAddr, [this] {
                waitingRetry_ = false;
                retry();
            });
        }
        return;
    }

    if (pendingOp_->type == ReqType::DemandLoad)
        ++inFlight_;
    ++opsIssued_;
    ++opsThisVisit_;
    workDone_ += k.workPerOp;

    // Software prefetch into the L2, `distance` ops ahead of the demand
    // stream.  Fire-and-forget: the L2 drops it when MSHRs are scarce.
    if (k.swPrefetchL2) {
        Op fut = st.ops.at(st.opIndex + k.swPrefetchDistance);
        if (fut.swPrefetchable) {
            PrefetchOutcome out =
                l2_.tryPrefetch(fut.lineAddr, ReqType::SwPrefetch,
                                params_.core,
                                static_cast<int>(params_.thread));
            if (out == PrefetchOutcome::Started ||
                out == PrefetchOutcome::Deferred) {
                ++swPrefIssued_;
            }
        }
    }

    ++st.opIndex;
    pendingOp_.reset();
    computeReady_ = false;
    maybeAdvancePhase();
    beginCompute();
}

void
ThreadContext::opComplete(MemRequest *req)
{
    const bool was_load = req->type == ReqType::DemandLoad;
    pool_.free(req);
    if (was_load) {
        lll_assert(inFlight_ > 0, "load completion underflow");
        --inFlight_;
    }
    tryIssue();
}

void
ThreadContext::retry()
{
    tryIssue();
}

void
ThreadContext::resetStats()
{
    opsIssued_ = 0;
    workDone_ = 0.0;
    swPrefIssued_ = 0;
}

} // namespace lll::sim
