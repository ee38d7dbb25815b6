/**
 * @file
 * Audit orchestration and report rendering (`lll audit`).
 */

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.hh"

namespace fs = std::filesystem;

namespace lll::audit
{

void
AuditReport::add(util::Diagnostic d, std::string hint)
{
    diagnostics.add(std::move(d));
    fixHints.push_back(std::move(hint));
}

std::string
AuditReport::renderText() const
{
    std::ostringstream out;
    if (!diagnostics.empty())
        out << diagnostics.renderText();
    out << "audit: " << stats.files << " files in " << stats.modules
        << " modules -- " << stats.includes << " includes, "
        << stats.nameLiterals << " name literals, " << stats.idLiterals
        << " id literals, " << stats.declarations
        << " declarations checked; " << diagnostics.errorCount()
        << " errors, " << diagnostics.warningCount() << " warnings, "
        << diagnostics.noteCount() << " notes\n";
    return out.str();
}

std::string
AuditReport::renderJson() const
{
    using Layout = util::JsonWriter::Layout;
    std::string out;
    util::JsonWriter w(out);
    w.beginObject(Layout::Block)
        .key("stats")
        .beginObject(Layout::Block)
        .member("files", stats.files)
        .member("modules", stats.modules)
        .member("includes", stats.includes)
        .member("name_literals", stats.nameLiterals)
        .member("id_literals", stats.idLiterals)
        .member("declarations", stats.declarations)
        .end()
        .key("diagnostics");
    diagnostics.writeJson(w);
    w.key("summary")
        .beginObject(Layout::Block)
        .member("errors", diagnostics.errorCount())
        .member("warnings", diagnostics.warningCount())
        .member("notes", diagnostics.noteCount())
        .member("clean", clean())
        .end()
        .end();
    return out;
}

std::string
AuditReport::renderFixPlan() const
{
    const std::vector<util::Diagnostic> &diags = diagnostics.all();
    if (diags.empty())
        return "fix plan: tree is clean; nothing to do\n";
    std::ostringstream out;
    out << "fix plan (" << diags.size() << " findings):\n";
    for (size_t i = 0; i < diags.size(); ++i) {
        out << "  " << (i + 1) << ". [" << diags[i].id << "] "
            << diags[i].subject << ": "
            << (i < fixHints.size() ? fixHints[i] : "see finding")
            << "\n";
    }
    return out.str();
}

util::Result<AuditReport>
runAudit(const AuditConfig &config)
{
    util::Result<std::vector<SourceFile>> tree =
        loadSourceTree(config.root);
    if (!tree.ok()) {
        return tree.status().withContext("auditing '%s'",
                                         config.root.c_str());
    }
    const std::vector<SourceFile> &files = tree.value();

    AuditReport report;
    report.stats.files = files.size();
    std::set<std::string> modules;
    for (const SourceFile &f : files)
        modules.insert(f.module);
    report.stats.modules = modules.size();

    checkLayering(files, config.layers, report);
    checkNameRegistry(files, config, report);
    checkApiHygiene(files, report);
    return report;
}

util::Result<std::string>
findRepoRoot(const std::string &start, int maxHops)
{
    std::error_code ec;
    fs::path p = fs::absolute(start, ec);
    if (ec)
        p = start;
    for (int hop = 0; hop <= maxHops; ++hop) {
        if (fs::is_directory(p / "src", ec) &&
            fs::is_directory(p / "tools", ec))
            return p.generic_string();
        const fs::path parent = p.parent_path();
        if (parent == p)
            break;
        p = parent;
    }
    return util::Status::error(
        util::ErrorCode::NotFound,
        "no repo root (a directory holding src/ and tools/) at or "
        "above '%s'",
        start.c_str());
}

} // namespace lll::audit
