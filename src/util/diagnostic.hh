/**
 * @file
 * Structured diagnostics: the finding currency of `lll lint`.
 *
 * A Diagnostic is one finding about a configuration or a simulation —
 * an error ("this spec cannot run"), a warning ("this spec runs but the
 * analysis will be vacuous") or a note ("this is the regime you are
 * in") — carrying a *stable identifier* (e.g. `LLL-SPEC-002`) that
 * tools, CI greps and golden tests can key on while the human text
 * stays free to improve.  DESIGN.md §10 tables every ID.
 *
 * The sim validators (sim/validator.hh) and the static analyzer
 * (analysis/spec_lint.hh) both emit Diagnostics, so `lll lint` and
 * System construction report the same finding identically; the legacy
 * util::Status surface is derived via DiagnosticList::toStatus().
 */

#ifndef LLL_UTIL_DIAGNOSTIC_HH
#define LLL_UTIL_DIAGNOSTIC_HH

#include <cstdarg>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/status.hh"

namespace lll::util
{

/** How bad a finding is.  Only Error makes a config unusable. */
enum class Severity
{
    Error,   //!< infeasible: a System built from this config is invalid
    Warning, //!< feasible but suspect: results will likely mislead
    Note,    //!< informational: derived bounds, regime classification
};

/** Stable lower-case name ("error", "warning", "note"). */
const char *severityName(Severity s);

/**
 * One finding.  `id` is stable across releases (new checks get new
 * IDs; retired checks retire their ID); `subject` names what was
 * examined ("skl", "kernel 'isx'", "skl/isx [+ vect]").
 */
struct Diagnostic
{
    std::string id;
    Severity severity = Severity::Error;
    std::string subject;
    std::string message;

    /** "error LLL-SPEC-002 [skl]: threadsPerCore (4) outside 1..2" */
    std::string toString() const;
};

/**
 * An ordered collection of findings with printf-style emit helpers and
 * renderers for the two `lll lint` output formats.
 */
class DiagnosticList
{
  public:
    void add(Diagnostic d) { diags_.push_back(std::move(d)); }

    void error(const char *id, std::string subject, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)));
    void warning(const char *id, std::string subject, const char *fmt,
                 ...) __attribute__((format(printf, 4, 5)));
    void note(const char *id, std::string subject, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)));

    /** Append every finding of @p other, keeping order. */
    void append(const DiagnosticList &other);

    /** Re-label every finding with @p subject (used when merging
     *  per-component lists into a per-config report). */
    void setSubjects(const std::string &subject);

    const std::vector<Diagnostic> &all() const { return diags_; }
    bool empty() const { return diags_.empty(); }
    size_t size() const { return diags_.size(); }

    size_t errorCount() const { return count(Severity::Error); }
    size_t warningCount() const { return count(Severity::Warning); }
    size_t noteCount() const { return count(Severity::Note); }
    bool hasErrors() const { return errorCount() != 0; }

    /**
     * The legacy Status view: OK when no Error-severity finding exists;
     * otherwise @p code with the first error's "ID: message" text (the
     * format the pre-lint validators reported).  Warnings and notes do
     * not surface here — they are a lint-only concept.
     */
    [[nodiscard]] Status
    toStatus(ErrorCode code = ErrorCode::FailedPrecondition) const;

    /** One finding per line, `Diagnostic::toString()` format. */
    std::string renderText() const;

    /** A block-layout JSON array of {id, severity, subject, message}
     *  objects, one per line. */
    void writeJson(JsonWriter &w) const;

  private:
    size_t count(Severity s) const;
    void vadd(Severity sev, const char *id, std::string subject,
              const char *fmt, va_list ap);

    std::vector<Diagnostic> diags_;
};

} // namespace lll::util

#endif // LLL_UTIL_DIAGNOSTIC_HH
