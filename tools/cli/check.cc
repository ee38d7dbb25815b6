/**
 * @file
 * The commands that check the model and the tree rather than run the
 * paper's method: lint (static analyzer, determinism check), audit
 * (source auditor) and selftest (fault injection).
 */

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/determinism.hh"
#include "analysis/profile_lint.hh"
#include "analysis/spec_lint.hh"
#include "audit/audit.hh"
#include "cli.hh"
#include "faultinject/faultinject.hh"
#include "util/diagnostic.hh"

namespace lll::cli
{

namespace
{

struct LintRequest
{
    std::string json;
    std::string profile; //!< lint this profile file instead
    bool determinism = false;
    std::string seeds; //!< "A,B,...": nonzero tie-break seeds
    analysis::DeterminismOptions determinismOpts;
    /** The named variant, or every registered workload on every
     *  platform. */
    std::vector<Variant> jobs;
};

template <class V, util::RecordOf<LintRequest> R>
void
visitFields(V &v, R &r)
{
    v("json", r.json, kFlag);
    v("profile", r.profile, kFlag);
    v("determinism", r.determinism, kFlag);
    v("seeds", r.seeds, kFlag);
}

Status
decodeOperands(util::ArgParser &ap, LintRequest &r, const char *command)
{
    // `--profile FILE` lints a cached latency-profile file instead of
    // workload configs; the two modes do not mix.
    if (!r.profile.empty()) {
        if (r.determinism || !r.seeds.empty()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "--profile does not mix with "
                                 "--determinism or --seeds");
        }
        return Status::okStatus();
    }
    // `--seeds A,B,...` overrides the alternate tie-break seeds the
    // determinism check runs against.  The baseline (seed 0, insertion
    // order) is always prepended; the listed seeds must be nonzero so
    // every comparison is baseline-vs-permuted.
    if (!r.seeds.empty()) {
        if (!r.determinism) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "--seeds requires --determinism");
        }
        r.determinismOpts.seeds.assign(1, 0);
        std::stringstream ss(r.seeds);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            uint64_t seed = 0;
            LLL_RETURN_IF_ERROR(
                util::parseFlagValue("--seeds", tok, util::FieldOpts{}, seed));
            if (seed == 0) {
                return Status::error(ErrorCode::InvalidArgument,
                                     "--seeds: seed 0 is the implicit "
                                     "baseline; list only nonzero "
                                     "tie-break seeds");
            }
            r.determinismOpts.seeds.push_back(seed);
        }
        if (r.determinismOpts.seeds.size() < 2) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "--seeds: expected at least one nonzero "
                                 "seed");
        }
    }
    // Operands: none (scan the whole registry) or workload platform
    // [opts...].  Unlike analyze/trace, an *infeasible* variant is a
    // valid lint request — that is the point of linting — so opts are
    // parsed but never pre-checked against the platform.
    if (!ap.rest().empty()) {
        r.jobs.emplace_back();
        return decodeVariant(ap, command, r.jobs.back(), OptOperands::Take);
    }
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        for (workloads::WorkloadPtr &w :
             workloads::allWorkloadsAndExtensions())
            r.jobs.push_back({std::move(w), p, {}});
    }
    return Status::okStatus();
}

void
printDiags(FILE *rep, const util::DiagnosticList &diags)
{
    for (const util::Diagnostic &d : diags.all())
        std::fprintf(rep, "%s\n", d.toString().c_str());
}

util::Result<Outcome>
lintProfile(const LintRequest &r, FILE *rep)
{
    util::DiagnosticList diags = analysis::lintProfileFile(r.profile);
    printDiags(rep, diags);
    std::fprintf(rep,
                 "profile lint: %s — %zu errors, %zu warnings, %zu "
                 "notes\n",
                 r.profile.c_str(), diags.errorCount(),
                 diags.warningCount(), diags.noteCount());

    Outcome out;
    if (diags.errorCount()) {
        out.verdict = Status::error(ErrorCode::FailedPrecondition,
                                    "%zu profile lint error(s)",
                                    diags.errorCount());
    }
    util::JsonWriter w(out.data);
    w.beginObject(Layout::Block)
        .key("profiles")
        .beginArray(Layout::Block)
        .beginObject()
        .member("path", r.profile)
        .key("diagnostics");
    diags.writeJson(w);
    w.end()
        .end()
        .key("summary")
        .beginObject()
        .member("errors", diags.errorCount())
        .member("warnings", diags.warningCount())
        .member("notes", diags.noteCount())
        .end()
        .end();
    return out;
}

util::Result<Outcome>
runLint(const LintRequest &r, const Context &ctx)
{
    FILE *rep = ctx.report;
    if (!r.profile.empty())
        return lintProfile(r, rep);

    size_t errors = 0, warnings = 0, notes = 0, det_failures = 0;
    Outcome out;
    util::JsonWriter w(out.data);
    w.beginObject(Layout::Block).key("platforms").beginArray(Layout::Block);

    // Platform-level findings once per distinct platform, in job order.
    std::vector<std::string> seen_platforms;
    for (const Variant &job : r.jobs) {
        const std::string &name = job.platform.name;
        if (std::find(seen_platforms.begin(), seen_platforms.end(),
                      name) != seen_platforms.end()) {
            continue;
        }
        seen_platforms.push_back(name);
        util::DiagnosticList diags =
            analysis::lintRecipeReachability(job.platform);
        printDiags(rep, diags);
        errors += diags.errorCount();
        warnings += diags.warningCount();
        notes += diags.noteCount();
        w.beginObject().member("name", name).key("diagnostics");
        diags.writeJson(w);
        w.end();
    }

    w.end().key("configs").beginArray(Layout::Block);
    for (const Variant &job : r.jobs) {
        analysis::ConfigLint cl =
            analysis::lintConfig(job.platform, *job.workload, job.opts);
        printDiags(rep, cl.diagnostics);
        std::fprintf(rep, "%s: %s (%zu errors, %zu warnings, %zu "
                          "notes)\n",
                     cl.subject.c_str(),
                     cl.feasible() ? "ok" : "INFEASIBLE",
                     cl.diagnostics.errorCount(),
                     cl.diagnostics.warningCount(),
                     cl.diagnostics.noteCount());
        errors += cl.diagnostics.errorCount();
        warnings += cl.diagnostics.warningCount();
        notes += cl.diagnostics.noteCount();
        w.beginObject()
            .member("subject", cl.subject)
            .member("feasible", cl.feasible())
            .key("bounds");
        if (cl.boundsValid)
            core::writeBounds(w, cl.bounds);
        else
            w.null();
        w.key("diagnostics");
        cl.diagnostics.writeJson(w);
        w.end();
    }

    w.end().key("determinism").beginArray(Layout::Block);
    if (r.determinism) {
        for (const Variant &job : r.jobs) {
            // A variant the platform cannot even build was already
            // reported as infeasible above; nothing to run.
            if (!job.platform
                     .trySysParams(job.platform.totalCores,
                                   job.opts.smtWays())
                     .ok()) {
                continue;
            }
            util::Result<analysis::DeterminismReport> d =
                analysis::checkRunDeterminism(job.platform, *job.workload,
                                              job.opts, r.determinismOpts);
            if (!d.ok())
                return d.status();
            const std::string subject = job.platform.name + "/" +
                                        job.workload->name() + " [" +
                                        job.opts.label() + "]";
            printDiags(rep, d->diagnostics);
            std::fprintf(rep,
                         "%s: determinism %s (%zu seeds, %zu metrics)\n",
                         subject.c_str(), d->deterministic ? "ok" : "FAILED",
                         d->seedsRun, d->metricsCompared);
            if (!d->deterministic)
                ++det_failures;
            w.beginObject()
                .member("subject", subject)
                .member("deterministic", d->deterministic)
                .member("seeds", d->seedsRun)
                .member("metrics", d->metricsCompared)
                .key("diagnostics");
            d->diagnostics.writeJson(w);
            w.end();
        }
    }
    w.end()
        .key("summary")
        .beginObject()
        .member("configs", r.jobs.size())
        .member("errors", errors)
        .member("warnings", warnings)
        .member("notes", notes)
        .member("determinism_failures", det_failures)
        .end()
        .end();

    std::fprintf(rep,
                 "lint: %zu configs on %zu platforms — %zu errors, %zu "
                 "warnings, %zu notes",
                 r.jobs.size(), seen_platforms.size(), errors, warnings,
                 notes);
    if (r.determinism)
        std::fprintf(rep, ", %zu determinism failures", det_failures);
    std::fprintf(rep, "\n");

    if (det_failures) {
        out.verdict = Status::error(ErrorCode::Internal,
                                    "%zu determinism failure(s)",
                                    det_failures);
    } else if (errors) {
        out.verdict = Status::error(ErrorCode::FailedPrecondition,
                                    "%zu lint error(s)", errors);
    }
    return out;
}

struct AuditRequest
{
    std::string json;
    std::string root; //!< empty: found by walking up from the cwd
    bool fixPlan = false;
};

template <class V, util::RecordOf<AuditRequest> R>
void
visitFields(V &v, R &r)
{
    v("json", r.json, kFlag);
    v("root", r.root, kFlag);
    v("fix_plan", r.fixPlan, kFlag);
}

/**
 * `lll audit`: run the in-tree source auditor (src/audit, DESIGN.md
 * §15) over the repo's src/ and tools/ trees.  Exit 0 on a clean tree,
 * 3 (bad input: the *source* is the input) when any LLL-SRC-1xx error
 * fires — the same verdict shape as lint.
 */
util::Result<Outcome>
runAudit(const AuditRequest &r, const Context &ctx)
{
    audit::AuditConfig config;
    if (r.root.empty()) {
        util::Result<std::string> found = audit::findRepoRoot(".");
        if (!found.ok())
            return found.status();
        config.root = found.take();
    } else {
        config.root = r.root;
    }

    util::Result<audit::AuditReport> report = audit::runAudit(config);
    if (!report.ok())
        return report.status();

    std::fputs(report->renderText().c_str(), ctx.report);
    if (r.fixPlan)
        std::fputs(report->renderFixPlan().c_str(), ctx.report);

    Outcome out;
    if (report->diagnostics.errorCount()) {
        out.verdict = Status::error(ErrorCode::FailedPrecondition,
                                    "%zu audit error(s)",
                                    report->diagnostics.errorCount());
    }
    out.data = report->renderJson();
    return out;
}

struct SelftestRequest
{
    faultinject::Options options;
};

template <class V, util::RecordOf<SelftestRequest> R>
void
visitFields(V &v, R &r)
{
    v("iterations", r.options.fuzzIterations, kCount);
    v("seed", r.options.seed, kFlag);
    v("verbose", r.options.verbose, kFlag);
}

util::Result<Outcome>
runSelftest(const SelftestRequest &r, const Context &ctx)
{
    const faultinject::Report report = faultinject::runAll(r.options);
    std::fputs(report.render(r.options.verbose).c_str(), ctx.report);
    Outcome out;
    if (!report.allPassed()) {
        out.verdict = Status::error(ErrorCode::Internal,
                                    "%d self-test scenario(s) failed",
                                    report.failures());
        out.exit = 1;
    }
    return out;
}

} // namespace

const Runner cmdLint = runner<runLint>;
const Runner cmdAudit = runner<runAudit>;
const Runner cmdSelftest = runner<runSelftest>;

} // namespace lll::cli
