/**
 * @file
 * Search-space specification and candidate enumeration (DESIGN.md §17).
 *
 * A SearchSpec names the base platform and workload, the axes whose
 * cross product spans the space, optional explicit points, and the
 * cost-model weights.  enumerateSpace() expands it into concrete
 * candidates, each a self-contained Platform with a canonical label,
 * admitted once as a stage (core::admitStage), with its static cost
 * and its analytic Little's-law bandwidth ceiling — everything the
 * pruner compares before anything simulates.
 */

#ifndef LLL_SEARCH_SPACE_HH
#define LLL_SEARCH_SPACE_HH

#include <string>
#include <vector>

#include "core/sweep.hh"
#include "platforms/platform.hh"
#include "search/axes.hh"
#include "util/fields.hh"
#include "util/status.hh"
#include "workloads/optimization.hh"
#include "workloads/workload.hh"

namespace lll::search
{

/** Everything `lll search` / a `kind:"search"` request needs: the
 *  shared stage fields plus the space and the search knobs. */
struct SearchSpec : core::StageRequest
{
    /** Tests inject a custom base platform here (hasBasePlatform);
     *  the CLI and the service always resolve platformName. */
    bool hasBasePlatform = false;
    platforms::Platform basePlatform;

    std::vector<Axis> axes;          //!< cross product
    std::vector<Assignment> points;  //!< explicit extra points

    /** Cost model: cost = l1_mshrs + l2_mshrs + bankWeight * banks
     *  (per core MSHRs; banks as built by the memory controller).
     *  enumerateSpace() accepts [0, 1e9]. */
    double bankWeight = 0.5;

    /** Refuse spaces larger than this before any work happens
     *  (at least 1). */
    size_t maxCandidates = 4096;

    /** Simulate everything (tests compare against this brute force). */
    bool disablePruning = false;
};

/** SearchSpec's own field list (util/fields.hh), all of it `lll
 *  search` flags.  The knobs' ranges are checked by enumerateSpace(),
 *  once for both front ends. */
template <class V, util::RecordOf<SearchSpec> R>
void
visitFields(V &v, R &s)
{
    v("axes", s.axes,
      {.help = "one axis: name=lo:hi:*k | lo:hi:+s | a,b,c",
       .flag = "--axis"});
    v("points", s.points,
      {.help = "one explicit extra point: name=v,name=v,...",
       .flag = "--point"});
    v("bank_weight", s.bankWeight,
      {.help = "cost = L1 + L2 MSHRs + W x banks"});
    v("max_candidates", s.maxCandidates,
      {.help = "refuse larger spaces up front"});
    v("no_prune", s.disablePruning,
      {.help = "simulate everything (skip analytic pruning)"});
}

/** How one candidate left the pipeline. */
enum class CandidateFate
{
    Simulated,      //!< fanned through SweepRunner::runAdmitted
    PrunedAnalytic, //!< ceiling proves it dominated by a cheaper point
    Infeasible,     //!< admission refused it, or its variant is vacuous
};

const char *candidateFateName(CandidateFate fate);

/** One enumerated point of the space, pre-simulation. */
struct Candidate
{
    std::string label;             //!< canonical "axis=value,..." form
    platforms::Platform platform;  //!< base + assignment, renamed
    /** The SearchSpec's stage fields on @ref platform, admitted once
     *  (core::admitStage); or, in "candidate <label>" context, the
     *  refusal or the applied variant's vacuity (LLL-LINT-102/106),
     *  which no simulation can fix. */
    util::Result<core::AdmittedStage> stage;
    /** l1_mshrs + l2_mshrs + bankWeight * banks, per core MSHRs and
     *  banks as the memory controller builds them (0 when refused). */
    double cost = 0.0;
    /** core::throughputCeilingGBs of the admitted stage: the bound
     *  the pruner compares (0 when refused). */
    double ceilingGBs = 0.0;
};

/**
 * Expand the cross product of @p spec's axes plus its explicit points
 * into candidates (canonical order: label-lexicographic within the
 * name-sorted cross product; duplicates collapse to their first
 * occurrence).  Admits each candidate as @p workload's stage under
 * @p spec's opts, then prices and bounds what admission built.
 *
 * Fails only on structural problems (empty space, too many
 * candidates, a bank weight or candidate cap out of range) — the one
 * place both `lll search` and a serve search request check them;
 * per-candidate refusals ride in Candidate::stage, not errors.
 */
[[nodiscard]] util::Result<std::vector<Candidate>>
enumerateSpace(const SearchSpec &spec, const platforms::Platform &base,
               const workloads::Workload &workload);

} // namespace lll::search

#endif // LLL_SEARCH_SPACE_HH
