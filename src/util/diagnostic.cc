#include "util/diagnostic.hh"

#include "util/logging.hh"

namespace lll::util
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Error:
        return "error";
      case Severity::Warning:
        return "warning";
      case Severity::Note:
        return "note";
    }
    return "unknown";
}

std::string
Diagnostic::toString() const
{
    std::string out = severityName(severity);
    out += " ";
    out += id;
    if (!subject.empty()) {
        out += " [";
        out += subject;
        out += "]";
    }
    out += ": ";
    out += message;
    return out;
}

void
DiagnosticList::vadd(Severity sev, const char *id, std::string subject,
                     const char *fmt, va_list ap)
{
    Diagnostic d;
    d.id = id;
    d.severity = sev;
    d.subject = std::move(subject);
    d.message = detail::vformat(fmt, ap);
    diags_.push_back(std::move(d));
}

void
DiagnosticList::error(const char *id, std::string subject,
                      const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vadd(Severity::Error, id, std::move(subject), fmt, ap);
    va_end(ap);
}

void
DiagnosticList::warning(const char *id, std::string subject,
                        const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vadd(Severity::Warning, id, std::move(subject), fmt, ap);
    va_end(ap);
}

void
DiagnosticList::note(const char *id, std::string subject, const char *fmt,
                     ...)
{
    va_list ap;
    va_start(ap, fmt);
    vadd(Severity::Note, id, std::move(subject), fmt, ap);
    va_end(ap);
}

void
DiagnosticList::append(const DiagnosticList &other)
{
    diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

void
DiagnosticList::setSubjects(const std::string &subject)
{
    for (Diagnostic &d : diags_)
        d.subject = subject;
}

size_t
DiagnosticList::count(Severity s) const
{
    size_t n = 0;
    for (const Diagnostic &d : diags_) {
        if (d.severity == s)
            ++n;
    }
    return n;
}

Status
DiagnosticList::toStatus(ErrorCode code) const
{
    for (const Diagnostic &d : diags_) {
        if (d.severity == Severity::Error)
            return Status(code, d.id + ": " + d.message);
    }
    return Status::okStatus();
}

std::string
DiagnosticList::renderText() const
{
    std::string out;
    for (const Diagnostic &d : diags_) {
        out += d.toString();
        out += "\n";
    }
    return out;
}

void
DiagnosticList::writeJson(JsonWriter &w) const
{
    w.beginArray(JsonWriter::Layout::Block);
    for (const Diagnostic &d : diags_) {
        w.beginObject()
            .member("id", d.id)
            .member("severity", severityName(d.severity))
            .member("subject", d.subject)
            .member("message", d.message)
            .end();
    }
    w.end();
}

} // namespace lll::util
