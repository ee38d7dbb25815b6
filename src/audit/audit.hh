/**
 * @file
 * The in-tree source auditor behind `lll audit` (DESIGN.md §15).
 *
 * PR 3 gave configurations the lint treatment; this module gives the
 * *source tree itself* the same treatment, because the paper's method
 * is only as trustworthy as the instrumentation: a typo'd metric
 * string or a dropped Status silently corrupts an analysis instead of
 * failing it.  Three check families, each with stable `LLL-SRC-1xx`
 * IDs in the standard Diagnostic machinery:
 *
 *  - layering (LLL-SRC-101..103): the `src/` modules form a declared
 *    DAG (util → obs → sim → … → net, `cli` on top); every local
 *    `#include` must follow a declared edge, and the declared table
 *    itself must stay acyclic and complete;
 *  - name registry (LLL-SRC-110..112): every metric/span-shaped string
 *    literal and every `LLL-XXX-NNN` diagnostic-ID literal must match
 *    the checked-in registry (util/names.hh) exactly;
 *  - API hygiene (LLL-SRC-120..124): Status/Result-returning header
 *    declarations must carry [[nodiscard]]; raw clocks, rand/time and
 *    exit are banned outside their one sanctioned home; [[deprecated]]
 *    symbols must not be referenced from non-test code; JSON is
 *    written by util::JsonWriter and flags are read by
 *    util::FlagReader only.
 *
 * Everything is a pure function of the file bytes — no compiler, no
 * network, no environment — so audit output is byte-deterministic and
 * golden-testable, and the whole thing runs in milliseconds as a CI
 * wall.
 */

#ifndef LLL_AUDIT_AUDIT_HH
#define LLL_AUDIT_AUDIT_HH

#include <string>
#include <vector>

#include "audit/source_model.hh"
#include "util/diagnostic.hh"
#include "util/names.hh"
#include "util/status.hh"

namespace lll::audit
{

/** One module and the modules its includes may reach directly. */
struct LayerSpec
{
    std::string module;
    std::vector<std::string> deps;
};

/** The repo's declared layering DAG (DESIGN.md §15.2), bottom-up. */
std::vector<LayerSpec> defaultLayers();

/** The checked-in name registry as scan tables (util/names.hh). */
std::vector<std::string> defaultRegisteredNames();
std::vector<util::names::DiagId> defaultDiagIds();

/** What to audit and against which tables (defaults = this repo's). */
struct AuditConfig
{
    /** Repo root (the directory holding src/ and tools/). */
    std::string root = ".";
    std::vector<LayerSpec> layers = defaultLayers();
    std::vector<std::string> registeredNames = defaultRegisteredNames();
    std::vector<util::names::DiagId> diagIds = defaultDiagIds();
    /** Files the registry literal check skips (the registry itself). */
    std::vector<std::string> registrySources = {"src/util/names.hh"};
};

/** Scan-size counters for the report footer. */
struct AuditStats
{
    size_t files = 0;
    size_t modules = 0;
    size_t includes = 0;
    size_t nameLiterals = 0;
    size_t idLiterals = 0;
    size_t declarations = 0;
};

/** The audit verdict: findings plus what was examined. */
struct AuditReport
{
    util::DiagnosticList diagnostics;
    /** One imperative remediation per finding, index-aligned with
     *  diagnostics (the `--fix-plan` payload). */
    std::vector<std::string> fixHints;
    AuditStats stats;

    /** Append one finding plus its remediation. */
    void add(util::Diagnostic d, std::string hint);

    bool clean() const { return !diagnostics.hasErrors(); }

    /** One finding per line plus a one-line summary footer. */
    std::string renderText() const;
    /** The `--json` data object (diagnostics + stats + summary). */
    std::string renderJson() const;
    /** Suggested remediation, one imperative line per finding. */
    std::string renderFixPlan() const;
};

/**
 * Run every check over @p config.root.  Fails (as a Status) only when
 * the tree cannot be read; findings — however bad — are data.
 */
[[nodiscard]] util::Result<AuditReport> runAudit(const AuditConfig &config);

/**
 * Walk upward from @p start looking for a directory that contains
 * both `src/` and `tools/` (the repo root, when run from a build
 * tree); NotFound after @p maxHops parents.
 */
[[nodiscard]] util::Result<std::string> findRepoRoot(const std::string &start,
                                       int maxHops = 6);

// --- individual checks (exposed for focused tests) -------------------

void checkLayering(const std::vector<SourceFile> &files,
                   const std::vector<LayerSpec> &layers,
                   AuditReport &report);

void checkNameRegistry(const std::vector<SourceFile> &files,
                       const AuditConfig &config, AuditReport &report);

void checkApiHygiene(const std::vector<SourceFile> &files,
                     AuditReport &report);

} // namespace lll::audit

#endif // LLL_AUDIT_AUDIT_HH
