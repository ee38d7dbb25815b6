/**
 * @file
 * The spec/config static analyzer behind `lll lint`.
 *
 * Before any simulation runs, a KernelSpec + SystemParams pair already
 * determines hard analytical bounds: the MLP the code can expose versus
 * the MSHR capacity that will cap it, the bandwidth ceiling Little's
 * law implies for that capacity at the node's idle latency, and whether
 * the declared controller peak is even reachable from the cores.  A
 * config that violates these bounds — or one whose recipe states can
 * never fire on the given platform — corrupts every downstream
 * conclusion, so this module finds such configs *statically* and
 * reports them as structured diagnostics (util::Diagnostic, stable IDs
 * `LLL-LINT-1xx` / `LLL-RCP-0xx`; DESIGN.md §10 has the full table).
 *
 * Everything here is a pure function of the static tables — no X-Mem
 * profile, no event queue — so lint output is byte-deterministic and
 * golden-testable.
 */

#ifndef LLL_ANALYSIS_SPEC_LINT_HH
#define LLL_ANALYSIS_SPEC_LINT_HH

#include <string>
#include <vector>

#include "core/bounds.hh"
#include "platforms/platform.hh"
#include "sim/kernel_spec.hh"
#include "sim/system.hh"
#include "util/diagnostic.hh"
#include "workloads/workload.hh"

namespace lll::analysis
{

/**
 * Static feasibility lint of one assembled config: the sim validators
 * (LLL-SPEC / LLL-KRN errors) plus the analytical checks
 * (LLL-LINT-1xx).  All findings are re-labelled with @p subject.
 */
util::DiagnosticList lintSpec(const sim::SystemParams &sys,
                              const sim::KernelSpec &spec,
                              const std::string &subject);

/**
 * Which recipe recommendations can ever fire on @p platform, probed by
 * driving core::Recipe::advise() across the whole analysis-state space
 * (both MSHR regimes x both access classes x bandwidth regimes).
 * Recommendations that never fire are reported as LLL-RCP-0xx notes —
 * statically unreachable recipe states.
 */
util::DiagnosticList
lintRecipeReachability(const platforms::Platform &platform);

/** The lint verdict for one platform x workload x variant config. */
struct ConfigLint
{
    std::string subject;    //!< "skl/isx [base]"
    util::DiagnosticList diagnostics;
    core::SpecBounds bounds;
    bool boundsValid = false; //!< false when the variant cannot even
                              //!< produce SystemParams (e.g. SMT ways)
    bool feasible() const { return !diagnostics.hasErrors(); }
};

/**
 * Lint one platform x workload x optimization-set config, including
 * variants that are infeasible on the platform (reported as
 * LLL-PLAT-001 errors rather than a Status failure, so `lll lint` can
 * keep scanning).
 */
ConfigLint lintConfig(const platforms::Platform &platform,
                      const workloads::Workload &workload,
                      const workloads::OptSet &opts);

} // namespace lll::analysis

#endif // LLL_ANALYSIS_SPEC_LINT_HH
