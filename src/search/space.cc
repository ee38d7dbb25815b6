#include "search/space.hh"

#include <algorithm>
#include <map>

#include "core/bounds.hh"
#include "sim/mem_ctrl.hh"

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

namespace
{

/** The cost model (SearchSpec::bankWeight) of an admitted stage. */
double
candidateCost(const sim::SystemParams &sys, double bank_weight)
{
    return static_cast<double>(sys.l1.mshrs) +
           static_cast<double>(sys.l2.mshrs) +
           bank_weight *
               static_cast<double>(sim::MemCtrl::banksFor(sys.mem));
}

/** @p platform as @p spec's stage of @p workload: admitted, then
 *  priced, bounded and its applied variant checked. */
Candidate
admitCandidate(const SearchSpec &spec, const workloads::Workload &workload,
               const std::string &label, platforms::Platform platform)
{
    util::Result<core::AdmittedStage> stage =
        core::admitStage(core::requestUnit(spec, platform, workload));
    if (!stage.ok()) {
        return {label, std::move(platform),
                stage.status().withContext("candidate %s", label.c_str())};
    }
    const sim::SystemParams &sys = stage->sys;
    const double cost = candidateCost(sys, spec.bankWeight);
    const double ceiling = core::throughputCeilingGBs(sys, stage->spec);
    const core::SpecBounds b = core::deriveBounds(sys, stage->spec);
    if (b.vacuous()) {
        // Admission checks the base variant; the applied one, when
        // vacuous (LLL-LINT-102/106), is as useless to simulate, so no
        // wave ever queues it.
        stage = Status::error(
            ErrorCode::FailedPrecondition,
            "candidate %s is statically vacuous "
            "(ceiling %.2f GB/s of %.2f peak, footprint %llu B vs "
            "L1 %llu B)",
            label.c_str(), b.mlpCeilingGBs, b.peakGBs,
            static_cast<unsigned long long>(b.footprintBytes),
            static_cast<unsigned long long>(b.l1CapacityBytes));
    }
    return {label, std::move(platform), std::move(stage), cost, ceiling};
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
        const std::string label = assign.label();
        if (seen.count(label))
            continue; // an explicit point restating a grid point
        util::Result<platforms::Platform> plat =
            applyAssignment(base, assign);
        if (!plat.ok())
            return plat.status();
        seen.emplace(label, out.size());
        out.push_back(admitCandidate(spec, workload, label, plat.take()));
    }
    return out;
}

} // namespace lll::search
