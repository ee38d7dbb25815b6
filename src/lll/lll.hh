/**
 * @file
 * Umbrella header for the LLL library — performance analysis and
 * optimization with Little's law.
 *
 * This is the *kitchen-sink* include: every module, including
 * simulator internals and observability plumbing, with no stability
 * promise.  Downstream consumers who want a surface that will not
 * shift under them should include lll/api.hh instead — it exports only
 * the stable types (service::RunRequest/RunResponse, core::Analyzer,
 * core::Recipe, util::Status, util::DiagnosticList) and carries the
 * LLL_API_VERSION macro.
 *
 * Typical flow (see examples/quickstart.cpp):
 *
 *   1. pick a platform            platforms::findPlatform("skl")
 *   2. characterize it once       XMemHarness().measureCachedChecked(...)
 *   3. run/profile a routine      core::SweepRunner::runStages
 *   4. derive the MLP             core::Analyzer (Little's law, Eq. 2)
 *   5. ask for guidance           core::Recipe (paper Fig. 1)
 *
 * Before step 3, analysis::lintConfig() statically checks the config
 * (`lll lint`); analysis::checkRunDeterminism() guards the simulator
 * against event-order races.
 */

#ifndef LLL_LLL_HH
#define LLL_LLL_HH

#include "analysis/determinism.hh"
#include "analysis/profile_lint.hh"
#include "analysis/spec_lint.hh"
#include "core/analyzer.hh"
#include "core/bounds.hh"
#include "core/experiment.hh"
#include "core/littles_law.hh"
#include "core/recipe.hh"
#include "core/roofline.hh"
#include "core/sweep.hh"
#include "core/tma.hh"
#include "counters/counter_bank.hh"
#include "counters/vendor_matrix.hh"
#include "obs/export.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "platforms/platform.hh"
#include "service/service.hh"
#include "sim/system.hh"
#include "util/table.hh"
#include "workloads/optimization.hh"
#include "workloads/workload.hh"
#include "xmem/latency_profile.hh"
#include "xmem/xmem_harness.hh"

#endif // LLL_LLL_HH
