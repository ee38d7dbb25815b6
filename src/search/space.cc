#include "search/space.hh"

#include <algorithm>
#include <map>

#include "util/stats.hh"

namespace lll::search
{

using util::ErrorCode;
using util::Status;

const char *
candidateFateName(CandidateFate fate)
{
    switch (fate) {
      case CandidateFate::Simulated:
        return "simulated";
      case CandidateFate::PrunedAnalytic:
        return "pruned-analytic";
      case CandidateFate::Infeasible:
        return "infeasible";
    }
    return "?";
}

/** Mirror MemCtrl's constructor: an explicit override wins, else
 *  banks are derived so peak is (approximately) sustainable. */
static unsigned
effectiveBanks(const sim::SystemParams &sys)
{
    unsigned banks = sys.mem.banksOverride;
    if (banks == 0) {
        banks = static_cast<unsigned>(sys.mem.peakGBs *
                                          sys.mem.bankServiceNs /
                                          static_cast<double>(
                                              sys.mem.lineBytes) +
                                      0.5);
    }
    return banks;
}

double
candidateCost(const sim::SystemParams &sys, double bank_weight)
{
    return static_cast<double>(sys.l1.mshrs) +
           static_cast<double>(sys.l2.mshrs) +
           bank_weight * static_cast<double>(effectiveBanks(sys));
}

/**
 * The bandwidth the memory controller can physically stream: every
 * line serializes on one bank for the (tick-quantized) service
 * latency.  This — not the declared peak, which bank-count rounding
 * can land above or below — is the strict throughput cap the ceiling
 * must use for the pruner to be sound.
 */
static double
bankCapacityGBs(const sim::SystemParams &sys)
{
    const double service_ns =
        ticksToNs(nsToTicks(sys.mem.bankServiceNs));
    if (!(service_ns > 0.0))
        return sys.mem.peakGBs;
    return static_cast<double>(effectiveBanks(sys)) *
           static_cast<double>(sys.mem.lineBytes) / service_ns;
}

/** Lower bound on how long a line's L2 MSHR is held: the memory round
 *  trip alone (tick-quantized).  Queuing, L3 lookups and the fill path
 *  only lengthen the real hold, so dividing by this never understates
 *  the candidate's throughput cap. */
static double
memHoldNs(const sim::SystemParams &sys)
{
    return ticksToNs(nsToTicks(sys.mem.frontLatencyNs)) +
           ticksToNs(nsToTicks(sys.mem.bankServiceNs)) +
           ticksToNs(nsToTicks(sys.mem.backLatencyNs));
}

/**
 * Little's-law cap from the in-flight-line budget.  Every line headed
 * to memory — demand miss or prefetch — occupies one L2 MSHR from
 * before the request leaves the cache until its fill returns, so
 * cores x l2_mshrs lines at most are ever in flight, each for at
 * least memHoldNs().  This is a *provable* cap, unlike the analyzer's
 * effective-MLP estimate (core::deriveBounds), which models the MLP
 * the kernel is *expected* to expose — the paper's own ISx row
 * measures n_avg above the L1 MSHR count because the prefetcher keeps
 * extra lines in flight, so that estimate must not prune.  Only when
 * no prefetcher can add traffic (hardware prefetcher off and the
 * kernel issues no software prefetches) is demand the only issuer and
 * the L1 MSHR count a valid tighter budget.
 */
static double
lineCapacityGBs(const sim::SystemParams &sys,
                const sim::KernelSpec &spec)
{
    const double hold = memHoldNs(sys);
    if (!(hold > 0.0))
        return sys.mem.peakGBs;
    double lines = sys.l2.mshrs;
    if (!sys.l2PrefetcherEnabled && !spec.swPrefetchL2)
        lines = std::min(lines, static_cast<double>(sys.l1.mshrs));
    return static_cast<double>(sys.cores) * lines *
           static_cast<double>(sys.lineBytes) / hold;
}

namespace
{

/** Fill the cost/ceiling/feasibility fields of @p c. */
void
analyzeCandidate(const SearchSpec &spec,
                 const workloads::Workload &workload, Candidate &c)
{
    const int cores = spec.cores > 0 ? spec.cores
                                     : c.platform.totalCores;
    util::Result<sim::SystemParams> sp =
        c.platform.trySysParams(cores, spec.opts.smtWays());
    if (!sp.ok()) {
        c.feasible = false;
        c.infeasibleWhy = sp.status().withContext("candidate %s",
                                                  c.label.c_str());
        return;
    }
    const sim::KernelSpec kernel =
        workload.spec(c.platform, spec.opts);
    c.cost = candidateCost(*sp, spec.bankWeight);
    c.bounds = core::deriveBounds(*sp, kernel);
    c.ceilingGBs =
        std::min(lineCapacityGBs(*sp, kernel), bankCapacityGBs(*sp));
    if (c.bounds.vacuous()) {
        // The applied variant is vacuous (LLL-LINT-102/106), which no
        // simulation can fix; classify it here so the wave runner
        // never queues it.  (core::admitStage checks the base variant.)
        c.feasible = false;
        c.infeasibleWhy = Status::error(
            ErrorCode::FailedPrecondition,
            "candidate %s is statically vacuous "
            "(ceiling %.2f GB/s of %.2f peak, footprint %llu B vs "
            "L1 %llu B)",
            c.label.c_str(), c.bounds.mlpCeilingGBs, c.bounds.peakGBs,
            static_cast<unsigned long long>(c.bounds.footprintBytes),
            static_cast<unsigned long long>(c.bounds.l1CapacityBytes));
        return;
    }
    c.feasible = true;
}

} // namespace

util::Result<std::vector<Candidate>>
enumerateSpace(const SearchSpec &spec, const platforms::Platform &base,
               const workloads::Workload &workload)
{
    if (spec.axes.empty() && spec.points.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "search space is empty: give at least "
                             "one axis or explicit point");
    }
    if (!(spec.bankWeight >= 0.0 && spec.bankWeight <= 1e9)) {
        return Status::error(ErrorCode::InvalidArgument,
                             "bank weight %g is outside [0, 1e9]",
                             spec.bankWeight);
    }
    if (spec.maxCandidates == 0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "max candidates must be >= 1");
    }

    // Canonical axis order (by name), so the cross product — and every
    // downstream artifact — is independent of declaration order.
    std::vector<Axis> axes = spec.axes;
    std::sort(axes.begin(), axes.end(),
              [](const Axis &a, const Axis &b) { return a.name < b.name; });
    for (size_t i = 1; i < axes.size(); ++i) {
        if (axes[i].name == axes[i - 1].name) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "axis '%s' declared twice",
                                 axes[i].name.c_str());
        }
    }

    size_t total = axes.empty() ? 0 : 1;
    for (const Axis &axis : axes) {
        if (axis.values.empty()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "axis '%s' has no values",
                                 axis.name.c_str());
        }
        if (total > spec.maxCandidates / axis.values.size() + 1)
            total = spec.maxCandidates + 1; // saturate, avoid overflow
        else
            total *= axis.values.size();
    }
    if (total + spec.points.size() > spec.maxCandidates) {
        return Status::error(ErrorCode::InvalidArgument,
                             "search space exceeds %zu candidates; "
                             "shrink an axis or raise the cap",
                             spec.maxCandidates);
    }

    std::vector<Assignment> assignments;
    if (!axes.empty()) {
        std::vector<size_t> idx(axes.size(), 0);
        for (;;) {
            Assignment a;
            for (size_t d = 0; d < axes.size(); ++d)
                a.values.emplace_back(axes[d].name,
                                      axes[d].values[idx[d]]);
            assignments.push_back(std::move(a));
            size_t d = axes.size();
            while (d > 0) {
                --d;
                if (++idx[d] < axes[d].values.size())
                    break;
                idx[d] = 0;
                if (d == 0)
                    idx.clear();
            }
            if (idx.empty())
                break;
        }
    }
    assignments.insert(assignments.end(), spec.points.begin(),
                       spec.points.end());

    std::vector<Candidate> out;
    std::map<std::string, size_t> seen; //!< label -> first index
    for (const Assignment &assign : assignments) {
        Candidate c;
        c.assign = assign;
        c.label = assign.label();
        if (seen.count(c.label))
            continue; // an explicit point restating a grid point
        util::Result<platforms::Platform> plat =
            applyAssignment(base, assign);
        if (!plat.ok())
            return plat.status();
        c.platform = plat.take();
        analyzeCandidate(spec, workload, c);
        seen.emplace(c.label, out.size());
        out.push_back(std::move(c));
    }
    return out;
}

} // namespace lll::search
