/**
 * @file
 * The `lll` command-line driver: the library's capabilities behind one
 * binary, the way a user of the paper's method would consume them.
 * main.cc holds the command table; tables.cc, run.cc, sweep.cc,
 * serve.cc and check.cc each run one family of commands.
 *
 * Every `--json FILE` export ("-" = stdout, the human report then
 * moves to stderr) is the same envelope:
 *   {"schema_version": 1, "command": ..., "status": {code, exit,
 *    message}, "data": ..., "telemetry": ...}
 * so consumers parse one shape and never re-derive exit semantics.
 *
 * Exit codes (README "Robustness"): 0 success, 2 usage error, 3 bad
 * input data (including lint errors and failed serve requests), 4
 * simulation failure (including determinism divergence), 1 anything
 * else.  Every nonzero exit prints exactly one `lll: <code>: <message>`
 * line on stderr.
 */

#ifndef LLL_TOOLS_CLI_HH
#define LLL_TOOLS_CLI_HH

#include <cstdio>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "obs/registry.hh"
#include "platforms/platform.hh"
#include "util/argparse.hh"
#include "util/fields.hh"
#include "util/json.hh"
#include "util/status.hh"
#include "workloads/workload.hh"
#include "xmem/latency_profile.hh"

namespace lll::cli
{

using Layout = util::JsonWriter::Layout;
using util::ErrorCode;
using util::Status;

struct Command;

/** Runs one command over its arguments (those after its name). */
using Runner = int (*)(std::vector<std::string> args, const Command &);

/** One row of the command table (main.cc). */
struct Command
{
    const char *name;
    const char *usage;   //!< the usage line after "lll "
    const char *summary; //!< one line for `lll --help` and the help page
    Runner run;
};

/** What the driver lends a command while it runs. */
struct Context
{
    /** Where the human report goes: stdout, or stderr while an export
     *  writes to stdout. */
    FILE *report;
    /** The envelope's telemetry when the outcome asks for it. */
    obs::MetricRegistry &registry;
};

/** What a command that ran to the end hands back to the driver. */
struct Outcome
{
    /** Not ok: the run finished but failed (lint errors, failed
     *  requests, a perf regression, ...).  Decides the exit code. */
    util::Status verdict;
    /** The envelope's "data" document. */
    std::string data;
    /** Export Context::registry as the envelope's telemetry. */
    bool telemetry = false;
    /** Set: the exit code, instead of the verdict's. */
    int exit = -1;
};

/** A command's work: the decoded request in, an outcome or a hard
 *  error out. */
template <class Req>
using Run = util::Result<Outcome> (*)(const Req &, const Context &);

/** Prints @p status as the one `lll:` line; returns @p exit when set,
 *  else the status's exit code. */
int fail(const util::Status &status, int exit = -1);

/**
 * The driver's tail: maps the outcome to its exit code, writes the
 * envelope to @p json when set (not after a hard error) and prints the
 * `lll:` line of a failure.
 */
int conclude(const Command &c, util::Result<Outcome> result,
             const std::string &json, const obs::MetricRegistry &registry);

/**
 * Decode a request and run it.  The request's field list, when it has
 * one, is read off the arguments (util::FlagReader), then its operands
 * by an ADL `decodeOperands(ArgParser &, Req &, const char *command)`
 * when it has one; leftovers are usage errors.  A request's `json`
 * member is its envelope path; a `json` or `metrics` member of "-"
 * moves the report to stderr, and at most one of them may.  @p req
 * carries whatever the runner decoded before the flags.
 */
template <class Req>
int
drive(std::vector<std::string> args, const Command &c, Run<Req> run,
      Req req = {})
{
    util::ArgParser ap(std::move(args));
    util::FlagReader flags(ap);
    if constexpr (util::Record<Req>)
        visitFields(flags, req);
    if (ap.helpRequested()) {
        std::fputs(ap.helpText(c.usage, c.summary).c_str(), stdout);
        return 0;
    }
    Status s = flags.status();
    if constexpr (requires { decodeOperands(ap, req, c.name); }) {
        if (s.ok())
            s = decodeOperands(ap, req, c.name);
    }
    if (s.ok())
        s = ap.finish();
    std::string json;
    int to_stdout = 0;
    if constexpr (requires { req.json; }) {
        json = req.json;
        to_stdout += json == "-";
    }
    if constexpr (requires { req.metrics; })
        to_stdout += req.metrics == "-";
    if (s.ok() && to_stdout > 1) {
        s = Status::error(ErrorCode::InvalidArgument,
                          "--json - and --metrics - would both write "
                          "stdout");
    }
    if (!s.ok())
        return fail(s);
    obs::MetricRegistry registry;
    const Context ctx{to_stdout ? stderr : stdout, registry};
    return conclude(c, run(req, ctx), json, registry);
}

/** Field options of a flag without a help line, and of one whose
 *  value counts something (at least 1). */
inline constexpr util::FieldOpts kFlag{.help = ""};
inline constexpr util::FieldOpts kCount{.lo = 1, .help = ""};

/** The `<workload> <platform> [opts ...]` operands. */
struct Variant
{
    workloads::WorkloadPtr workload;
    platforms::Platform platform;
    workloads::OptSet opts;
};

/** Whether optimization tokens may follow a variant's platform. */
enum class OptOperands
{
    Take,
    Refuse, //!< left for ArgParser::finish() to reject
};

/** Decode @p ap's leading `<workload> <platform> [opts ...]` into
 *  @p out: "<command> needs a workload and a platform", or the
 *  lookup's error. */
[[nodiscard]] util::Status decodeVariant(util::ArgParser &ap,
                                         const char *command, Variant &out,
                                         OptOperands opts);

/** Take @p ap's next operand into @p out: "<command> needs <what>"
 *  when there is none. */
[[nodiscard]] Status takeOperand(util::ArgParser &ap, const char *command,
                                 const char *what, std::string &out);

/** The result-cache knobs every caching command shares. */
struct CacheFlags
{
    int maxEntries = 0;       //!< in-process LRU cap; 0 = unbounded
    uint64_t spillBudget = 0; //!< spill-dir byte cap; 0 = unbounded
    std::string cacheDir;     //!< spill dir; empty = memory only

    /** Apply to @p cache: the caps first, so a pre-existing spill dir
     *  is trimmed to the budget as it attaches. */
    [[nodiscard]] util::Status applyTo(core::ResultCache &cache) const;
};

template <class V, util::RecordOf<CacheFlags> R>
void
visitFields(V &v, R &f)
{
    v("max_entries", f.maxEntries, kCount);
    v("spill_budget", f.spillBudget, kFlag);
    v("cache_dir", f.cacheDir, kFlag);
}

/** @p p's X-Mem latency profile, measured once and cached on disk. */
[[nodiscard]] util::Result<xmem::LatencyProfile>
profileFor(const platforms::Platform &p);

/** The ResultCache counters as a JSON object. */
void writeCacheStats(util::JsonWriter &w, const core::ResultCache::Stats &cs);

/** The runner of a command whose request starts out default. */
template <auto run>
int
runner(std::vector<std::string> args, const Command &c)
{
    return drive(std::move(args), c, run);
}

// The runners of the table rows, by family file.
extern const Runner cmdPlatforms, cmdWorkloads, cmdVendors, cmdCharacterize,
    cmdRoofline;
extern const Runner cmdAnalyze, cmdTrace, cmdWalk;
extern const Runner cmdTable, cmdSweep, cmdReproduce, cmdSearch;
extern const Runner cmdServe, cmdBenchServe;
extern const Runner cmdLint, cmdAudit, cmdSelftest;

} // namespace lll::cli

#endif // LLL_TOOLS_CLI_HH
