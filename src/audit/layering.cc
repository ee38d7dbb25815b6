/**
 * @file
 * Layering check: `src/` modules form a declared DAG and every local
 * `#include` follows a declared edge (LLL-SRC-101..103).
 */

#include <map>
#include <set>
#include <string>
#include <vector>

#include "audit/audit.hh"

namespace lll::audit
{

std::vector<LayerSpec>
defaultLayers()
{
    // Bottom-up (DESIGN.md §15.2).  An entry lists the modules its
    // `#include`s may reach *directly*; transitive reach is whatever
    // the DAG induces.  Tightening an edge out of this table is how a
    // layering decision becomes enforceable.
    return {
        {"util", {}},
        {"obs", {"util"}},
        {"sim", {"util", "obs"}},
        {"platforms", {"util", "sim"}},
        {"counters", {"util", "sim", "platforms"}},
        {"xmem", {"util", "obs", "sim", "platforms"}},
        {"workloads", {"util", "obs", "sim", "platforms"}},
        {"core",
         {"util", "obs", "sim", "platforms", "counters", "workloads",
          "xmem"}},
        {"analysis",
         {"util", "sim", "platforms", "workloads", "xmem", "core"}},
        // The autotuner composes core's bounds/sweep machinery over
        // platform spaces; only service and the CLI may depend on it.
        {"search",
         {"util", "obs", "sim", "platforms", "workloads", "core"}},
        {"service",
         {"util", "obs", "sim", "platforms", "workloads", "core",
          "search"}},
        {"net", {"util", "obs", "core", "service"}},
        {"faultinject",
         {"util", "obs", "sim", "platforms", "counters", "workloads",
          "xmem", "core", "net"}},
        {"audit", {"util"}},
        {"lll",
         {"util", "obs", "sim", "platforms", "counters", "workloads",
          "xmem", "core", "analysis", "search", "service"}},
        // The CLI (tools/) is the top of the stack and may see it all.
        {"cli",
         {"util", "obs", "sim", "platforms", "counters", "workloads",
          "xmem", "core", "analysis", "search", "service",
          "net", "faultinject", "audit", "lll"}},
    };
}

void
checkLayering(const std::vector<SourceFile> &files,
              const std::vector<LayerSpec> &layers, AuditReport &report)
{
    std::map<std::string, std::set<std::string>> allowed;
    for (const LayerSpec &l : layers)
        allowed[l.module].insert(l.deps.begin(), l.deps.end());

    // The declared table must itself be a DAG: Kahn's algorithm over
    // module -> dep edges; whatever cannot be peeled off is a cycle.
    {
        std::map<std::string, size_t> out_degree;
        std::map<std::string, std::set<std::string>> dependants;
        for (const auto &[mod, deps] : allowed) {
            out_degree[mod] = deps.size();
            for (const std::string &d : deps)
                dependants[d].insert(mod);
        }
        std::vector<std::string> ready;
        for (const auto &[mod, deg] : out_degree)
            if (deg == 0)
                ready.push_back(mod);
        size_t peeled = 0;
        while (!ready.empty()) {
            const std::string mod = ready.back();
            ready.pop_back();
            ++peeled;
            for (const std::string &up : dependants[mod])
                if (--out_degree[up] == 0)
                    ready.push_back(up);
        }
        if (peeled != out_degree.size()) {
            std::string cycle;
            for (const auto &[mod, deg] : out_degree) {
                if (deg != 0)
                    cycle += (cycle.empty() ? "" : ", ") + mod;
            }
            report.add({"LLL-SRC-102", util::Severity::Error,
                        "layer table",
                        "declared layer table has a dependency cycle "
                        "through: " +
                            cycle},
                       "break the cycle in the layer table (audit/"
                       "layering.cc) and re-layer the includes it was "
                       "hiding");
        }
    }

    for (const SourceFile &f : files) {
        const auto self = allowed.find(f.module);
        bool self_known = self != allowed.end();
        bool self_reported = false;
        for (const IncludeDirective &inc : f.includes) {
            if (inc.angled)
                continue;
            const size_t slash = inc.path.find('/');
            if (slash == std::string::npos)
                continue; // same-directory include; same module
            ++report.stats.includes;
            const std::string target = inc.path.substr(0, slash);
            const std::string subject =
                f.relPath + ":" + std::to_string(inc.line);
            if (!self_known) {
                if (!self_reported) {
                    report.add(
                        {"LLL-SRC-103", util::Severity::Error, subject,
                         "module '" + f.module +
                             "' is missing from the layer table"},
                        "add '" + f.module +
                            "' and its allowed deps to the layer "
                            "table (audit/layering.cc, DESIGN \xc2\xa7"
                            "15.2)");
                    self_reported = true;
                }
                continue;
            }
            if (target == f.module)
                continue;
            if (allowed.find(target) == allowed.end()) {
                report.add({"LLL-SRC-103", util::Severity::Error,
                            subject,
                            "include \"" + inc.path +
                                "\" points at module '" + target +
                                "', which is missing from the layer "
                                "table"},
                           "add '" + target +
                               "' to the layer table or fix the "
                               "include path");
                continue;
            }
            if (self->second.count(target) == 0) {
                std::string deps;
                for (const std::string &d : self->second)
                    deps += (deps.empty() ? "" : ", ") + d;
                report.add(
                    {"LLL-SRC-101", util::Severity::Error, subject,
                     "include \"" + inc.path + "\" gives '" + f.module +
                         "' an undeclared edge to '" + target +
                         "' (declared deps: " +
                         (deps.empty() ? "none" : deps) + ")"},
                    "invert or remove the include, or declare the "
                    "edge '" +
                        f.module + "' -> '" + target +
                        "' in the layer table if the layering is "
                        "intended");
            }
        }
    }
}

} // namespace lll::audit
