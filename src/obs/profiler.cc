#include "obs/profiler.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/timer.hh"
#include "util/json.hh"

namespace lll::obs
{

namespace
{

/**
 * Find or create the node for @p path under @p root.  Intermediate
 * nodes missing from the stats (an outer span still open when the
 * snapshot was taken, or a worker-only inner path) are synthesized
 * with zero count; their inclusive time is filled from children later.
 */
ProfileNode &
nodeFor(ProfileNode &root, const std::string &path)
{
    ProfileNode *cur = &root;
    size_t begin = 0;
    while (begin <= path.size()) {
        size_t slash = path.find('/', begin);
        if (slash == std::string::npos)
            slash = path.size();
        const std::string prefix = path.substr(0, slash);
        const std::string name = path.substr(begin, slash - begin);
        auto it = std::lower_bound(
            cur->children.begin(), cur->children.end(), prefix,
            [](const ProfileNode &n, const std::string &p) {
                return n.path < p;
            });
        if (it == cur->children.end() || it->path != prefix) {
            ProfileNode fresh;
            fresh.name = name;
            fresh.path = prefix;
            it = cur->children.insert(it, std::move(fresh));
        }
        cur = &*it;
        begin = slash + 1;
    }
    return *cur;
}

/**
 * Bottom-up pass: a synthesized node (count 0, no recorded time)
 * inherits the sum of its children's inclusive time; every node's
 * exclusive time is inclusive minus children, clamped at zero (the
 * clamp absorbs clock jitter between nested measurements).
 */
void
finalize(ProfileNode &node)
{
    double child_ns = 0.0;
    for (ProfileNode &child : node.children) {
        finalize(child);
        child_ns += child.inclusiveNs;
    }
    if (node.count == 0 && node.inclusiveNs == 0.0)
        node.inclusiveNs = child_ns;
    node.exclusiveNs = std::max(0.0, node.inclusiveNs - child_ns);
}

void
collect(const ProfileNode &node, std::vector<const ProfileNode *> &out)
{
    for (const ProfileNode &child : node.children) {
        out.push_back(&child);
        collect(child, out);
    }
}

void
renderNode(std::ostringstream &out, const ProfileNode &node,
           double wall_ns, unsigned depth)
{
    const double pct =
        wall_ns > 0.0 ? node.inclusiveNs / wall_ns * 100.0 : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line), "%6.1f%% %12.3f %12.3f %8llu  ",
                  pct, node.inclusiveNs / 1e6, node.exclusiveNs / 1e6,
                  static_cast<unsigned long long>(node.count));
    out << line;
    for (unsigned i = 0; i < depth; ++i)
        out << "  ";
    out << node.name << "\n";
    for (const ProfileNode &child : node.children)
        renderNode(out, child, wall_ns, depth + 1);
}

void
writeNode(util::JsonWriter &w, const ProfileNode &node)
{
    w.beginObject()
        .member("name", node.name)
        .member("path", node.path)
        .member("count", node.count)
        .member("inclusive_ns", node.inclusiveNs)
        .member("exclusive_ns", node.exclusiveNs)
        .key("children")
        .beginArray();
    for (const ProfileNode &child : node.children)
        writeNode(w, child);
    w.end().end();
}

} // namespace

std::vector<const ProfileNode *>
Profiler::Report::hotPaths(size_t limit) const
{
    std::vector<const ProfileNode *> nodes;
    collect(root, nodes);
    std::sort(nodes.begin(), nodes.end(),
              [](const ProfileNode *a, const ProfileNode *b) {
                  if (a->exclusiveNs != b->exclusiveNs)
                      return a->exclusiveNs > b->exclusiveNs;
                  return a->path < b->path;
              });
    if (nodes.size() > limit)
        nodes.resize(limit);
    return nodes;
}

Profiler::Report
Profiler::build(const std::vector<SpanTracker::Stat> &stats,
                double wall_ns, CounterMetric *self_counter)
{
    WallTimer cost;
    Report report;
    report.wallNs = wall_ns;
    report.root.name = "total";
    report.root.inclusiveNs = wall_ns;
    report.root.count = 1;

    for (const SpanTracker::Stat &s : stats) {
        ProfileNode &node = nodeFor(report.root, s.path);
        node.count = s.count;
        node.inclusiveNs = s.wallNs;
    }

    double attributed = 0.0;
    for (ProfileNode &top : report.root.children) {
        finalize(top);
        attributed += top.inclusiveNs;
    }
    report.attributedNs = attributed;
    report.root.exclusiveNs = std::max(0.0, wall_ns - attributed);

    report.buildNs = cost.elapsedNs();
    if (self_counter)
        self_counter->increment(static_cast<uint64_t>(report.buildNs));
    return report;
}

std::string
Profiler::renderText(const Report &report, size_t hot_limit)
{
    std::ostringstream out;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "profile: wall %.3f ms, attributed %.3f ms (%.1f%% "
                  "coverage)\n",
                  report.wallNs / 1e6, report.attributedNs / 1e6,
                  report.coverage() * 100.0);
    out << line;
    out << "  %incl      incl ms      excl ms    calls  span\n";
    renderNode(out, report.root, report.wallNs, 0);

    const std::vector<const ProfileNode *> hot =
        report.hotPaths(hot_limit);
    if (!hot.empty()) {
        out << "hot paths (by exclusive time):\n";
        size_t rank = 1;
        for (const ProfileNode *node : hot) {
            const double pct = report.wallNs > 0.0
                                   ? node->exclusiveNs /
                                         report.wallNs * 100.0
                                   : 0.0;
            std::snprintf(line, sizeof(line),
                          "  %2zu. %-48s %10.3f ms (%5.1f%%)\n", rank++,
                          node->path.c_str(), node->exclusiveNs / 1e6,
                          pct);
            out << line;
        }
    }
    return out.str();
}

std::string
Profiler::renderJson(const Report &report, size_t hot_limit)
{
    std::string out;
    util::JsonWriter w(out);
    w.beginObject(util::JsonWriter::Layout::Block)
        .precision(9)
        .member("schema_version", kSchemaVersion)
        .member("wall_ns", report.wallNs)
        .member("attributed_ns", report.attributedNs)
        .member("coverage", report.coverage())
        .member("build_ns", report.buildNs)
        .key("tree");
    writeNode(w, report.root);
    w.key("hot").beginArray();
    for (const ProfileNode *node : report.hotPaths(hot_limit)) {
        w.beginObject()
            .member("path", node->path)
            .member("exclusive_ns", node->exclusiveNs)
            .member("count", node->count)
            .end();
    }
    w.end().end();
    return out;
}

} // namespace lll::obs
