/**
 * @file
 * The command table, the driver's shared steps, and `lll profile`,
 * which runs another row of the table under a span tree.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hh"
#include "obs/export.hh"
#include "obs/profiler.hh"
#include "obs/span.hh"
#include "obs/timer.hh"
#include "util/names.hh"
#include "xmem/xmem_harness.hh"

namespace lll::cli
{

namespace
{

/** @p exit when set, else the exit code of @p status. */
int
exitCode(const Status &status, int exit = -1)
{
    return exit >= 0 ? exit : util::exitCodeFor(status.code());
}

/** @p o as the `--json` envelope at @p path. */
Status
writeEnvelope(const std::string &path, const Command &c, const Outcome &o,
              int exit, const obs::MetricRegistry &registry)
{
    const std::string telemetry =
        o.telemetry ? obs::exportJson(registry, &obs::SpanTracker::global())
                    : std::string();
    if (obs::writeExport(path, obs::jsonEnvelope(c.name, o.verdict, exit,
                                                 o.data, telemetry)))
        return Status::okStatus();
    return Status::error(ErrorCode::IoError, "cannot write '%s'",
                         path.c_str());
}

} // namespace

int
fail(const Status &status, int exit)
{
    std::fprintf(stderr, "lll: %s\n", status.toString().c_str());
    return exitCode(status, exit);
}

int
conclude(const Command &c, util::Result<Outcome> result,
         const std::string &json, const obs::MetricRegistry &registry)
{
    if (!result.ok())
        return fail(result.status());
    const Outcome &o = *result;
    const int exit = exitCode(o.verdict, o.exit);
    if (!json.empty()) {
        const Status written = writeEnvelope(json, c, o, exit, registry);
        if (!written.ok())
            return fail(written);
    }
    return o.verdict.ok() ? exit : fail(o.verdict, exit);
}

Status
decodeVariant(util::ArgParser &ap, const char *command, Variant &out,
              OptOperands opts)
{
    const std::vector<std::string> &rest = ap.rest();
    if (rest.size() < 2) {
        return Status::error(ErrorCode::InvalidArgument,
                             "%s needs a workload and a platform", command);
    }
    util::Result<workloads::WorkloadPtr> w = workloads::findWorkload(rest[0]);
    if (!w.ok())
        return w.status();
    util::Result<platforms::Platform> p = platforms::findPlatform(rest[1]);
    if (!p.ok())
        return p.status();
    out.workload = w.take();
    out.platform = p.take();
    ap.consumePositional(2);
    if (opts == OptOperands::Refuse)
        return Status::okStatus();
    for (const std::string &s : ap.rest()) {
        if (!workloads::optFromShortName(s)) {
            return Status::error(ErrorCode::InvalidArgument,
                                 !s.empty() && s[0] == '-'
                                     ? "unknown flag '%s'"
                                     : "unknown optimization '%s'",
                                 s.c_str());
        }
    }
    LLL_RETURN_IF_ERROR(fromWire(ap.rest(), out.opts));
    ap.consumePositional(ap.rest().size());
    return Status::okStatus();
}

Status
takeOperand(util::ArgParser &ap, const char *command, const char *what,
            std::string &out)
{
    if (ap.rest().empty()) {
        return Status::error(ErrorCode::InvalidArgument, "%s needs %s",
                             command, what);
    }
    out = ap.rest().front();
    ap.consumePositional(1);
    return Status::okStatus();
}

Status
CacheFlags::applyTo(core::ResultCache &cache) const
{
    if (maxEntries > 0)
        cache.setMaxEntries(static_cast<size_t>(maxEntries));
    if (spillBudget > 0)
        cache.setSpillBudget(spillBudget);
    if (!cacheDir.empty())
        return cache.setSpillDir(cacheDir);
    return Status::okStatus();
}

util::Result<xmem::LatencyProfile>
profileFor(const platforms::Platform &p)
{
    return xmem::XMemHarness().measureCachedChecked(
        p, xmem::defaultProfilePath(p));
}

void
writeCacheStats(util::JsonWriter &w, const core::ResultCache::Stats &cs)
{
    w.beginObject()
        .member("hits", cs.hits)
        .member("misses", cs.misses)
        .member("disk_loads", cs.diskLoads)
        .member("spills", cs.spills)
        .member("evictions", cs.evictions)
        .member("spill_evictions", cs.spillEvictions)
        .end();
}

namespace
{

int profileRunner(std::vector<std::string> args, const Command &c);

const Command kCommands[] = {
    {"platforms", "platforms",
     "List the modeled platforms (paper Table III).", cmdPlatforms},
    {"workloads", "workloads", "List the workload models (paper Table II).",
     cmdWorkloads},
    {"vendors", "vendors", "Counter visibility by vendor (paper Table I).",
     cmdVendors},
    {"characterize", "characterize <platform|all> [--fresh] [--jobs N]",
     "Measure (or load) a platform's X-Mem latency profile.",
     cmdCharacterize},
    {"analyze", "analyze <workload> <platform> [opts ...] [flags]",
     "Analyze one variant: Little's-law analysis plus the optimization "
     "recipe.",
     cmdAnalyze},
    {"trace", "trace <workload> <platform> [opts ...] [flags]",
     "Run one variant with telemetry and the request tracer attached.",
     cmdTrace},
    {"walk", "walk <workload> <platform>",
     "Follow the optimization recipe to convergence.", cmdWalk},
    {"table", "table <workload> [flags]",
     "One workload's paper table: its rows on every platform with the "
     "recipe's verdicts.",
     cmdTable},
    {"sweep", "sweep [flags]",
     "Every workload x platform walk through the parallel sweep runner.",
     cmdSweep},
    {"reproduce", "reproduce [flags]", "Reproduce the paper's Tables IV-IX.",
     cmdReproduce},
    {"roofline", "roofline <platform>",
     "Roofline roofs plus the MSHR bandwidth ceilings.", cmdRoofline},
    {"selftest", "selftest [flags]",
     "Run the fault-injection self-test harness.", cmdSelftest},
    {"lint",
     "lint [<workload> <platform> [opts ...]] [flags]  |  lint --profile "
     "FILE [--json FILE]",
     "Static spec/config analyzer; --determinism adds the event-order "
     "race check.",
     cmdLint},
    {"audit", "audit [flags]",
     "Run the in-tree source auditor (layering, name registries, API "
     "hygiene).",
     cmdAudit},
    {"serve",
     "serve [--batch FILE] [flags]  |  serve --listen HOST:PORT | "
     "--listen-unix PATH [flags]",
     "Batched JSON-lines run service; --listen serves the same protocol "
     "over sockets.",
     cmdServe},
    {"bench-serve",
     "bench-serve --connect HOST:PORT | --connect-unix PATH [flags]",
     "Load generator for the serve socket front-end.", cmdBenchServe},
    {"search",
     "search <workload> <platform> [opts ...] --axis name=spec ... [flags]",
     "Design-space autotuner: enumerate axes, prune by Little's-law "
     "ceiling, report the Pareto frontier.",
     cmdSearch},
    {"profile", "profile [--out FILE] [--top N] <command> [args ...]",
     "Self-profile any subcommand under a wall-clock span tree.",
     profileRunner},
};

const Command *
findCommand(const std::string &name)
{
    for (const Command &c : kCommands) {
        if (name == c.name)
            return &c;
    }
    return nullptr;
}

/** `lll --help`: one line per table row, then the variant opts. */
void
printIndex(FILE *to)
{
    std::fprintf(to, "usage: lll <command> [args]\n\n");
    for (const Command &c : kCommands)
        std::fprintf(to, "  %-14s%s\n", c.name, c.summary);
    std::fprintf(to, "\nopts:");
    for (workloads::Opt opt : workloads::kAllOpts)
        std::fprintf(to, " %s", workloads::optShortName(opt));
    std::fprintf(to, "\n`lll <command> --help` lists every flag of that "
                     "command.\n");
}

/** `lll <line...>`: the named command's exit code. */
int
dispatch(std::vector<std::string> line)
{
    const Command *c = line.empty() ? nullptr : findCommand(line.front());
    if (c == nullptr) {
        const int exit = fail(
            line.empty() ? Status::error(ErrorCode::InvalidArgument,
                                         "no command given")
                         : Status::error(ErrorCode::InvalidArgument,
                                         "unknown command '%s'",
                                         line.front().c_str()));
        printIndex(stderr);
        return exit;
    }
    line.erase(line.begin());
    return c->run(std::move(line), *c);
}

/** `lll profile`: its flags, then the command line it wraps. */
struct ProfileRequest
{
    std::string json; //!< --out
    size_t top = 10;
    std::vector<std::string> command;
};

template <class V, util::RecordOf<ProfileRequest> R>
void
visitFields(V &v, R &r)
{
    v("out", r.json, {.help = "write the profile envelope to FILE"});
    v("top", r.top, {.lo = 1, .help = "attribution tree rows to print"});
}

Status
decodeOperands(util::ArgParser &ap, ProfileRequest &r, const char *)
{
    // An unknown flag swallowed the command after it as its value.
    LLL_RETURN_IF_ERROR(ap.finish());
    if (r.command.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "profile needs a command");
    }
    const std::string &inner = r.command.front();
    if (inner == "profile") {
        return Status::error(ErrorCode::InvalidArgument,
                             "profile does not nest");
    }
    if (findCommand(inner) == nullptr) {
        return Status::error(ErrorCode::InvalidArgument,
                             "unknown command '%s'", inner.c_str());
    }
    return Status::okStatus();
}

/**
 * Run the wrapped command under a root span, then fold the span tracker
 * into a wall-clock attribution tree on stderr (stdout stays the inner
 * command's, so `lll profile sweep --json -` still pipes clean JSON).
 * The exit code is the inner command's.
 */
util::Result<Outcome>
runProfile(const ProfileRequest &r, const Context &)
{
    const std::string &inner = r.command.front();
    obs::SpanTracker::global().reset();
    obs::WallTimer wall;
    Outcome out;
    {
        obs::ScopedSpan root(util::names::kCmdSpanPrefix + inner);
        out.exit = dispatch(r.command);
    }
    const obs::Profiler::Report report = obs::Profiler::build(
        obs::SpanTracker::global().stats(), wall.elapsedNs());
    std::fprintf(stderr, "profile: %s (exit %d)\n", inner.c_str(),
                 out.exit);
    std::fputs(obs::Profiler::renderText(report, r.top).c_str(), stderr);

    util::JsonWriter w(out.data);
    w.beginObject(Layout::Block)
        .member("profiled_command", inner)
        .member("inner_exit", out.exit)
        .key("profile")
        .raw(obs::Profiler::renderJson(report, r.top))
        .end();
    return out;
}

int
profileRunner(std::vector<std::string> args, const Command &c)
{
    // Profile's flags, each valued, come before the command it wraps;
    // that command line is handed over untouched (its --help too).
    size_t n = 0;
    while (n < args.size() && args[n].starts_with('-'))
        n += args[n] == "--help" || args[n] == "-h" ? 1 : 2;
    n = std::min(n, args.size());
    ProfileRequest r;
    r.command.assign(args.begin() + static_cast<long>(n), args.end());
    args.resize(n);
    return drive(std::move(args), c, runProfile, std::move(r));
}

} // namespace
} // namespace lll::cli

int
main(int argc, char **argv)
{
    std::vector<std::string> line(argv + 1, argv + argc);
    if (!line.empty() &&
        (line[0] == "help" || line[0] == "--help" || line[0] == "-h")) {
        lll::cli::printIndex(stdout);
        return 0;
    }
    // `lll --profile <cmd>` is an alias for `lll profile <cmd>`.
    if (!line.empty() && line[0] == "--profile")
        line[0] = "profile";
    return lll::cli::dispatch(std::move(line));
}
