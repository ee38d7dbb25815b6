/**
 * @file
 * The `lll` command-line driver: the library's capabilities behind one
 * binary, the way a user of the paper's method would consume them.
 *
 *   lll platforms                         list platforms (Table III)
 *   lll workloads                         list workload models (Table II)
 *   lll characterize <plat> [--fresh]     X-Mem profile (cached)
 *   lll analyze <wl> <plat> [opts...]     one variant: analysis + recipe
 *   lll trace <wl> <plat> [opts...]       run with telemetry + tracer
 *   lll walk <wl> <plat>                  recipe loop to convergence
 *   lll table <wl>                        the paper-table rows for <wl>
 *   lll sweep                             every workload x platform walk
 *   lll reproduce                         the paper's Tables IV-IX
 *   lll roofline <plat>                   roofs + MSHR ceilings
 *   lll vendors                           counter visibility (Table I)
 *   lll selftest [--iterations N]         fault-injection harness
 *   lll lint [<wl> <plat> [opts...]]      static analyzer (+ determinism)
 *   lll audit [--fix-plan]                source auditor (layering, names)
 *   lll serve [--batch FILE]              batched JSON-lines run service
 *   lll serve --listen HOST:PORT          socket front-end (DESIGN §14)
 *   lll bench-serve --connect HOST:PORT   load generator for --listen
 *   lll search <wl> <plat> --axis ...     design-space autotuner (§17)
 *   lll profile <cmd> [args...]           self-profile any subcommand
 *   lll bench                             microbenchmark harness + ratchet
 *
 * Variant opts: vect 2-ht 4-ht l2-pref tiling unroll-jam fusion distr
 * analyze/trace also accept `--cores N` (drive the load with fewer
 * cores), `--json FILE` (machine-readable report, "-" for stdout) and
 * `--metrics FILE` (sampled time series as CSV).
 * lint accepts `--json FILE` and `--determinism` (event-order race
 * check; `--seeds A,B,...` picks the nonzero tie-break seeds to sweep);
 * without a workload/platform it scans the whole registry;
 * `--profile FILE` lints a cached X-Mem latency profile instead.
 * characterize `--jobs N` runs a profile's operating points on N
 * workers (the profile is byte-identical for any N).
 * table/sweep/reproduce run through the parallel SweepRunner: `--jobs N`
 * fans units out to N workers (output is byte-identical for any N) and
 * `--cache-dir DIR` spills the result cache to disk so warm reruns skip
 * simulation entirely.  `--max-entries N` caps the in-process memo
 * (LRU) and `--spill-budget BYTES` caps the spill dir (oldest first).
 * serve reads one JSON request per line (stdin or `--batch FILE`),
 * coalesces duplicates, and answers one JSON response per line on
 * stdout, in request order — see DESIGN.md §12 for the schema.
 *
 * Every `--json FILE` export is wrapped in the same envelope:
 *   {"schema_version": 1, "command": ..., "status": {code, exit,
 *    message}, "data": ..., "telemetry": ...}
 * so consumers parse one shape and never re-derive exit semantics.
 *
 * Flag parsing is shared (util::ArgParser): repeated flags, missing
 * values and unknown leftovers fail the same way on every subcommand,
 * and `lll <cmd> --help` renders the one generated usage format (every
 * registered flag listed) and exits 0.
 *
 * Exit codes (see README "Robustness"): 0 success, 2 usage error,
 * 3 bad input data (including lint errors and failed serve requests),
 * 4 simulation failure (including determinism divergence), 1 anything
 * else.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sim/tracer.hh"

#include "analysis/determinism.hh"
#include "analysis/spec_lint.hh"
#include "audit/audit.hh"
#include "counters/vendor_matrix.hh"
#include "faultinject/faultinject.hh"
#include "lll/api.hh"
#include "lll/lll.hh"
#include "net/listener.hh"
#include "net/loadgen.hh"
#include "net/serve_handler.hh"
#include "obs/profiler.hh"
#include "obs/timer.hh"
#include "perf/bench_report.hh"
#include "perf/microbench.hh"
#include "search/axes.hh"
#include "search/search.hh"
#include "util/argparse.hh"
#include "util/diagnostic.hh"
#include "util/json.hh"
#include "util/names.hh"
#include "util/status.hh"

using namespace lll;
using util::ArgParser;
using util::ErrorCode;
using util::Status;
using Layout = util::JsonWriter::Layout;
using workloads::Opt;
using workloads::OptSet;

namespace
{

void
usageText(FILE *to)
{
    std::fprintf(
        to,
        "usage: lll <command> [args]\n"
        "  platforms | workloads | vendors\n"
        "  characterize <platform|all> [--fresh] [--jobs N]\n"
        "  analyze <workload> <platform> [vect|2-ht|4-ht|l2-pref|tiling|"
        "unroll-jam|fusion|distr ...]\n"
        "          [--cores N] [--json FILE] [--metrics FILE]\n"
        "  trace <workload> <platform> [opts ...] [--cores N] "
        "[--json FILE] [--metrics FILE]\n"
        "  walk <workload> <platform>\n"
        "  table <workload> [--jobs N] [--cache-dir DIR]\n"
        "  sweep [--jobs N] [--cache-dir DIR] [--json FILE]\n"
        "  reproduce [--jobs N] [--cache-dir DIR]\n"
        "  roofline <platform>\n"
        "  selftest [--iterations N] [--seed S] [--verbose]\n"
        "  lint [<workload> <platform> [opts ...]] [--json FILE] "
        "[--determinism]\n"
        "       [--seeds A,B,...]\n"
        "  lint --profile FILE [--json FILE]\n"
        "  audit [--root DIR] [--json FILE] [--fix-plan]\n"
        "  serve [--batch FILE] [--jobs N] [--cache-dir DIR] "
        "[--max-entries N]\n"
        "        [--spill-budget BYTES] [--json FILE] "
        "[--stats-interval N]\n"
        "        [--request-telemetry]\n"
        "  serve --listen HOST:PORT | --listen-unix PATH "
        "[--jobs N]\n"
        "        [--max-inflight N] [--max-pipelined N] "
        "[--max-conns N]\n"
        "        [--max-line-bytes N] [--max-write-buffer BYTES]\n"
        "        [--idle-timeout-ms MS] [--read-timeout-ms MS]\n"
        "        [--watchdog-ms MS] [--drain-grace-ms MS] "
        "[--json FILE]\n"
        "  bench-serve --connect HOST:PORT | --connect-unix PATH\n"
        "        [--connections N] [--pipeline N] [--qps RATE] "
        "[--duration-s S]\n"
        "        [--requests FILE] [--drain-timeout-ms MS] "
        "[--json FILE]\n"
        "  search <workload> <platform> [opts ...] --axis name=spec "
        "...\n"
        "        [--point name=v,...] [--list-axes] [--jobs N] "
        "[--cache-dir DIR]\n"
        "        [--cores N] [--bank-weight W] [--max-candidates N]\n"
        "        [--no-prune] [--all] [--json FILE] [--seed S]\n"
        "        [--warmup-us X] [--measure-us X]\n"
        "  profile [--out FILE] [--top N] <command> [args ...]\n"
        "  bench [--trials N] [--warmup-ms MS] [--measure-ms MS] "
        "[--kernel NAME]\n"
        "        [--rev REV] [--json FILE] [--compare BASELINE] "
        "[--tolerance FRAC]\n"
        "`lll <command> --help` lists every flag of that command.\n");
}

int
usage()
{
    usageText(stderr);
    return 2;
}

/**
 * The shared `--help` exit: when @p ap latched `--help`, print the
 * generated help (usage tail + every flag the command registered) to
 * stdout and tell the caller to return 0.  Must run after all of the
 * command's flag accessors so the listing is complete.
 */
bool
helpOut(const ArgParser &ap, const char *tail, const char *summary)
{
    if (!ap.helpRequested())
        return false;
    std::fputs(ap.helpText(tail, summary).c_str(), stdout);
    return true;
}

/** Report @p status on stderr and map it to the process exit code. */
int
failWith(const Status &status)
{
    std::fprintf(stderr, "lll: %s\n", status.toString().c_str());
    return util::exitCodeFor(status.code());
}

util::Result<OptSet>
parseOpts(const std::vector<std::string> &args)
{
    for (const std::string &s : args) {
        if (!workloads::optFromShortName(s)) {
            return Status::error(ErrorCode::InvalidArgument,
                                 !s.empty() && s[0] == '-'
                                     ? "unknown flag '%s'"
                                     : "unknown optimization '%s'",
                                 s.c_str());
        }
    }
    OptSet set;
    LLL_RETURN_IF_ERROR(fromWire(args, set));
    return set;
}

util::Result<xmem::LatencyProfile>
profileFor(const platforms::Platform &p)
{
    return xmem::XMemHarness().measureCachedChecked(
        p, xmem::defaultProfilePath(p));
}

int
cmdPlatforms(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    if (helpOut(ap, "platforms", "List the modeled platforms "
                                 "(paper Table III)."))
        return 0;
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);
    Table t({"id", "Platform", "# Cores @ Rate", "Peak BW",
             "L1 MSHRs/core", "L2 MSHRs/core", "Line", "SMT", "Peak DP"});
    t.setCaption("Table III — Platforms used in experiments");
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        // The paper gives A64FX's L2 MSHR count as approximate.
        std::string l2 = p.name == "a64fx" ? "~" : "";
        l2 += std::to_string(p.l2Mshrs);
        t.addRow({p.name, p.description,
                  std::to_string(p.totalCores) + " @ " +
                      fmtDouble(p.freqGHz, 1) + "GHz",
                  fmtDouble(p.peakGBs, 0) + " GB/s",
                  std::to_string(p.l1Mshrs), l2,
                  std::to_string(p.lineBytes) + "B",
                  std::to_string(p.maxSmtWays) + "-way",
                  fmtDouble(p.peakGFlops / 1000.0, 2) + " TF"});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

int
cmdWorkloads(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    if (helpOut(ap, "workloads", "List the workload models "
                                 "(paper Table II)."))
        return 0;
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);
    Table t({"id", "description", "routine", "problem size", "pattern"});
    for (const workloads::WorkloadPtr &w : workloads::allWorkloads()) {
        t.addRow({w->name(), w->description(), w->routine(),
                  w->problemSize(),
                  w->randomDominated() ? "random" : "streaming"});
    }
    t.addRow({"dgemm", "Dense matrix multiply (extension)",
              "dgemm_kernel", "m=n=k=2048", "streaming"});
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

int
cmdVendors(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    if (helpOut(ap, "vendors", "Counter visibility by vendor "
                               "(paper Table I)."))
        return 0;
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);
    Table t({"Processor", "Breakdown of stalls", "L1-MSHRQ-full stalls",
             "L2-MSHRQ-full stalls", "Memory latency", "Memory traffic"});
    t.setCaption("Table I — Visibility into events across vendors "
                 "(memory-traffic column added: the portable subset)");
    for (const counters::VendorSummary &v :
         counters::vendorSummaries()) {
        t.addRow({platforms::vendorName(v.vendor),
                  counters::visibilityName(v.stallBreakdown),
                  counters::visibilityName(v.l1MshrFullStalls),
                  counters::visibilityName(v.l2MshrFullStalls),
                  counters::visibilityName(v.memoryLatency),
                  counters::visibilityName(v.memoryTraffic)});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

int
cmdCharacterize(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    util::Result<bool> fresh =
        ap.boolFlag("--fresh", "re-measure even when a profile exists");
    if (!fresh.ok())
        return failWith(fresh.status());
    util::Result<int> jobs =
        ap.intFlag("--jobs", 1, "threads running the operating points");
    if (!jobs.ok())
        return failWith(jobs.status());
    if (helpOut(ap, "characterize <platform|all> [--fresh] [--jobs N]",
                "Measure (or load) a platform's X-Mem latency "
                "profile."))
        return 0;
    if (ap.rest().empty())
        return usage();
    const std::string which = ap.rest().front();
    ap.consumePositional(1);
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    std::vector<platforms::Platform> plats;
    if (which == "all") {
        plats = platforms::allPlatforms();
    } else {
        util::Result<platforms::Platform> p =
            platforms::findPlatform(which);
        if (!p.ok())
            return failWith(p.status());
        plats.push_back(p.take());
    }
    xmem::XMemHarness::Params hp;
    hp.jobs = *jobs;
    const xmem::XMemHarness harness(hp);
    for (const platforms::Platform &p : plats) {
        std::string path = xmem::defaultProfilePath(p);
        if (*fresh)
            (void)std::remove(path.c_str()); // absent file is fine
        util::Result<xmem::LatencyProfile> prof =
            harness.measureCachedChecked(p, path);
        if (!prof.ok())
            return failWith(prof.status());
        std::printf("%s: idle %.0f ns, peak achievable %.0f GB/s "
                    "(profile: %s)\n",
                    p.name.c_str(), prof->idleLatencyNs(),
                    prof->maxMeasuredGBs(), path.c_str());
    }
    return 0;
}

/** Shared argv parsing of analyze/trace: workload platform [opts/flags]. */
struct VariantArgs
{
    workloads::WorkloadPtr workload;
    platforms::Platform platform;
    OptSet opts;
    std::string jsonPath;
    std::string metricsPath;
    int cores = 0; //!< 0 = all of the platform's cores
};

util::Result<VariantArgs>
parseVariantArgs(ArgParser &ap, const char *command)
{
    VariantArgs va;
    util::Result<std::string> json = ap.stringFlag("--json");
    if (!json.ok())
        return json.status();
    va.jsonPath = json.take();
    util::Result<std::string> metrics = ap.stringFlag("--metrics");
    if (!metrics.ok())
        return metrics.status();
    va.metricsPath = metrics.take();
    util::Result<int> cores = ap.intFlag("--cores", 0);
    if (!cores.ok())
        return cores.status();
    va.cores = *cores;

    // Help mode: flags are registered; the command prints and exits
    // before touching the (possibly absent) operands.
    if (ap.helpRequested())
        return va;

    if (ap.rest().size() < 2) {
        return Status::error(ErrorCode::InvalidArgument,
                             "%s needs a workload and a platform",
                             command);
    }
    util::Result<workloads::WorkloadPtr> w =
        workloads::findWorkload(ap.rest()[0]);
    if (!w.ok())
        return w.status();
    va.workload = w.take();
    util::Result<platforms::Platform> p =
        platforms::findPlatform(ap.rest()[1]);
    if (!p.ok())
        return p.status();
    va.platform = p.take();
    ap.consumePositional(2);

    util::Result<OptSet> opts = parseOpts(ap.rest());
    if (!opts.ok())
        return opts.status();
    va.opts = opts.take();
    return va;
}

Status
writeExportChecked(const std::string &path, const std::string &content)
{
    if (!obs::writeExport(path, content)) {
        return Status::error(ErrorCode::IoError, "cannot write '%s'",
                             path.c_str());
    }
    return Status::okStatus();
}

/** The `--json` envelope for @p command written to @p path, with
 *  @p registry's export (and the global spans) as its telemetry when
 *  one is given. */
Status
writeEnvelope(const std::string &path, const char *command,
              const Status &status, int exit_code, const std::string &data,
              const obs::MetricRegistry *registry)
{
    const std::string telemetry =
        registry ? obs::exportJson(*registry, &obs::SpanTracker::global())
                 : std::string();
    return writeExportChecked(
        path, obs::jsonEnvelope(command, status, exit_code, data, telemetry));
}

int
cmdAnalyze(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    util::Result<VariantArgs> parsed = parseVariantArgs(ap, "analyze");
    if (!parsed.ok())
        return failWith(parsed.status());
    if (helpOut(ap, "analyze <workload> <platform> [opts ...] [flags]",
                "Analyze one variant: Little's-law analysis plus the "
                "optimization recipe."))
        return 0;
    VariantArgs &va = *parsed;

    obs::MetricRegistry registry;
    core::Experiment::Params ep;
    ep.coresUsed = va.cores;
    if (!va.jsonPath.empty() || !va.metricsPath.empty())
        ep.registry = &registry;

    util::Result<xmem::LatencyProfile> prof = profileFor(va.platform);
    if (!prof.ok())
        return failWith(prof.status());

    // When an export goes to stdout the human report moves to stderr so
    // `lll analyze ... --json - | jq` stays parseable.
    FILE *rep = (va.jsonPath == "-" || va.metricsPath == "-") ? stderr
                                                              : stdout;
    util::Result<core::Experiment> exp = core::Experiment::create(
        va.platform, *va.workload, prof.take(), ep);
    if (!exp.ok())
        return failWith(exp.status());
    const core::StageMetrics &m = exp->stage(va.opts);
    const core::Analysis &a = m.analysis;
    std::fprintf(rep, "%s [%s] on %s:\n", va.workload->routine().c_str(),
                 va.opts.label().c_str(), va.platform.name.c_str());
    std::fprintf(rep,
                 "  BW %.1f GB/s (%.0f%% of peak), loaded latency %.0f "
                 "ns\n",
                 a.bwGBs, a.pctPeak * 100.0, a.latencyNs);
    std::fprintf(rep, "  n_avg %.2f of %u %s MSHRs (%s accesses)\n",
                 a.nAvg, a.limitingMshrs,
                 core::mshrLevelName(a.limitingLevel),
                 core::accessClassName(a.accessClass));
    // The TMA view of the same run, for the paper's §I contrast: an
    // ambiguous bandwidth/latency split and a load-latency mean that
    // prefetched hits pull far below the loaded latency above.
    const core::TmaReport tma = core::Tma(va.platform).analyze(m.run);
    std::fprintf(rep,
                 "  TMA: memory bound %.0f%% (bandwidth %.0f%% / latency "
                 "%.0f%%), avg load latency %.0f cycles (facility view)\n",
                 tma.memoryBoundPct, tma.bandwidthBoundPct,
                 tma.latencyBoundPct, tma.avgLoadLatencyCycles);
    for (const std::string &warning : a.warnings)
        std::fprintf(rep, "  warning: %s\n", warning.c_str());
    core::Recipe recipe(va.platform);
    core::RecipeDecision d = recipe.advise(a, va.opts);
    std::fprintf(rep, "  %s\n", d.summary.c_str());
    for (const core::Recommendation &r : d.recommendations) {
        std::fprintf(rep, "    [%s] %-22s %s\n",
                     r.recommended ? "TRY " : "skip",
                     workloads::optName(r.opt), r.rationale.c_str());
    }

    if (!va.jsonPath.empty()) {
        const std::string data = service::stageDataJson(
            m, va.platform.name, va.workload->name(),
            va.opts.label());
        Status s = writeEnvelope(va.jsonPath, "analyze", Status::okStatus(),
                                 0, data, &registry);
        if (!s.ok())
            return failWith(s);
    }
    if (!va.metricsPath.empty()) {
        Status s = writeExportChecked(va.metricsPath,
                                      obs::exportCsv(registry));
        if (!s.ok())
            return failWith(s);
    }
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    util::Result<VariantArgs> parsed = parseVariantArgs(ap, "trace");
    if (!parsed.ok())
        return failWith(parsed.status());
    if (helpOut(ap, "trace <workload> <platform> [opts ...] [flags]",
                "Run one variant with telemetry and the request "
                "tracer attached."))
        return 0;
    VariantArgs &va = *parsed;
    workloads::WorkloadPtr &w = va.workload;
    platforms::Platform &p = va.platform;

    obs::MetricRegistry registry;
    sim::RunResult run;
    sim::RequestTracer tracer;
    {
        obs::ScopedSpan span("trace[" + w->name() + "/" +
                             va.opts.label() + "]");
        sim::KernelSpec spec = w->spec(p, va.opts);
        util::Result<sim::SystemParams> sp = p.trySysParams(
            va.cores > 0 ? va.cores : p.totalCores, va.opts.smtWays());
        if (!sp.ok())
            return failWith(sp.status());
        sim::System sys(*sp, spec);
        sys.mem().setTracer(&tracer);
        sys.attachObservability(registry);
        util::Result<sim::RunResult> r =
            sys.runChecked(w->warmupUs(), w->measureUs());
        if (!r.ok())
            return failWith(r.status());
        run = r.take();
    }

    FILE *rep = (va.jsonPath == "-" || va.metricsPath == "-") ? stderr
                                                              : stdout;
    std::fprintf(rep, "%s [%s] on %s: %.1f GB/s over %.0f us\n",
                 w->routine().c_str(), va.opts.label().c_str(),
                 p.name.c_str(), run.totalGBs, w->measureUs());
    std::fprintf(rep, "  telemetry: %llu snapshots of %zu time series\n",
                 static_cast<unsigned long long>(registry.snapshots()),
                 registry.allSeries().size());
    std::fprintf(rep,
                 "  trace window: %zu of %llu memory requests, locality "
                 "%.2f\n",
                 tracer.size(),
                 static_cast<unsigned long long>(tracer.total()),
                 tracer.localityScore());
    if (va.jsonPath.empty() && va.metricsPath.empty())
        std::fprintf(rep, "  (use --json FILE / --metrics FILE to "
                          "export)\n");

    if (!va.jsonPath.empty()) {
        Status s = writeEnvelope(va.jsonPath, "trace", Status::okStatus(),
                                 0, tracer.toJson(), &registry);
        if (!s.ok())
            return failWith(s);
    }
    if (!va.metricsPath.empty()) {
        Status s = writeExportChecked(va.metricsPath,
                                      obs::exportCsv(registry));
        if (!s.ok())
            return failWith(s);
    }
    return 0;
}

int
cmdWalk(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    if (helpOut(ap, "walk <workload> <platform>",
                "Follow the optimization recipe to convergence."))
        return 0;
    if (ap.rest().size() < 2)
        return usage();
    util::Result<workloads::WorkloadPtr> w =
        workloads::findWorkload(ap.rest()[0]);
    if (!w.ok())
        return failWith(w.status());
    util::Result<platforms::Platform> p =
        platforms::findPlatform(ap.rest()[1]);
    if (!p.ok())
        return failWith(p.status());
    ap.consumePositional(2);
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);
    util::Result<xmem::LatencyProfile> prof = profileFor(*p);
    if (!prof.ok())
        return failWith(prof.status());
    util::Result<core::Experiment> exp =
        core::Experiment::create(*p, **w, prof.take());
    if (!exp.ok())
        return failWith(exp.status());
    core::Recipe recipe(*p);

    OptSet state;
    double base = exp->stage(state).throughput;
    for (int step = 0; step < 8; ++step) {
        const core::StageMetrics &m = exp->stage(state);
        core::RecipeDecision d = recipe.advise(m.analysis, state);
        std::printf("[%s] n_avg %.2f/%u, BW %.0f%%, cum %.2fx — %s\n",
                    state.label().c_str(), m.analysis.nAvg,
                    m.analysis.limitingMshrs, m.analysis.pctPeak * 100.0,
                    m.throughput / base, d.summary.c_str());
        bool moved = false;
        for (Opt opt : d.recommendedOpts()) {
            double s = exp->speedup(state, state.with(opt));
            std::printf("  %s -> %.2fx\n", workloads::optName(opt), s);
            if (s >= 1.02) {
                state = state.with(opt);
                moved = true;
                break;
            }
        }
        if (!moved || d.stop)
            break;
    }
    std::printf("final: [%s] %.2fx\n", state.label().c_str(),
                exp->stage(state).throughput / base);
    return 0;
}

/**
 * Apply the shared cache-capacity knobs to @p cache: `--max-entries N`
 * (in-process LRU cap), `--spill-budget BYTES` (on-disk cap, oldest
 * spill evicted first) and `--cache-dir DIR`.  Policy flags are
 * applied *before* the spill dir attaches so a pre-existing dir is
 * GC'd against the budget immediately.
 */
Status
applyCacheFlags(ArgParser &ap, core::ResultCache &cache)
{
    util::Result<int> max_entries = ap.intFlag("--max-entries", 0);
    if (!max_entries.ok())
        return max_entries.status();
    if (*max_entries > 0)
        cache.setMaxEntries(static_cast<size_t>(*max_entries));
    util::Result<uint64_t> budget = ap.uint64Flag("--spill-budget", 0);
    if (!budget.ok())
        return budget.status();
    if (*budget > 0)
        cache.setSpillBudget(*budget);
    util::Result<std::string> dir = ap.stringFlag("--cache-dir");
    if (!dir.ok())
        return dir.status();
    if (!dir->empty())
        return cache.setSpillDir(*dir);
    return Status::okStatus();
}

/**
 * Pull the SweepRunner knobs (`--jobs N` plus the cache-capacity
 * flags) out of @p ap.  The global ResultCache is always engaged — a
 * sweep revisiting a stage must never pay for it twice — and
 * `--cache-dir` additionally spills it to disk so the *next process*
 * is warm too.
 */
util::Result<core::SweepRunner::Params>
parseSweepFlags(ArgParser &ap)
{
    core::SweepRunner::Params sp;
    sp.cache = &core::ResultCache::global();
    util::Result<int> jobs = ap.intFlag("--jobs", 1);
    if (!jobs.ok())
        return jobs.status();
    sp.jobs = *jobs;
    Status cache = applyCacheFlags(ap, *sp.cache);
    if (!cache.ok())
        return cache;
    return sp;
}

/** One unit's rows as paper-table cells: Proc, Source, BW_obs,
 *  lat_avg, n_avg, "Opt: measured" and the paper's speedup. */
std::vector<std::vector<std::string>>
unitRowCells(const core::SweepRunner::UnitResult &u)
{
    double peak = 0.0;
    util::Result<platforms::Platform> p =
        platforms::findPlatform(u.platform);
    if (p.ok())
        peak = p->peakGBs;
    std::vector<std::vector<std::string>> cells;
    for (const core::TableRow &row : u.rows) {
        std::string opt = row.optLabel;
        std::string paper = "-";
        if (row.speedup > 0.0) {
            opt += ": " + fmtSpeedup(row.speedup);
            if (row.paperSpeedup > 0.0)
                paper = fmtSpeedup(row.paperSpeedup);
        }
        cells.push_back({u.platform, row.source,
                         fmtBwPct(row.bwGBs, peak),
                         fmtDouble(row.latencyNs, 0),
                         fmtDouble(row.nAvg, 2), opt, paper});
    }
    return cells;
}

/**
 * Print one paper table (Tables IV-IX) from one workload's units: the
 * rows of every platform with the recipe's verdict on each tried
 * optimization, then how often that verdict matched the outcome
 * (recommended and helped, or not recommended and did not help) --
 * the paper's core claim.
 */
void
printPaperTable(std::span<const core::SweepRunner::UnitResult> units)
{
    Table t({"Proc", "Source", "BW_obs (GB/s)", "lat_avg (ns)", "n_avg",
             "Opt: measured", "paper", "recipe"});
    int agree = 0, total = 0;
    for (const core::SweepRunner::UnitResult &u : units) {
        std::vector<std::vector<std::string>> cells = unitRowCells(u);
        for (size_t i = 0; i < cells.size(); ++i) {
            const core::TableRow &row = u.rows[i];
            std::string recipe = "-";
            if (row.speedup > 0.0) {
                recipe = row.recipeRecommended ? "rec" : "not-rec";
                ++total;
                if (row.recipeRecommended ==
                    (row.speedup >= core::kHelpedSpeedup))
                    ++agree;
            }
            cells[i].push_back(recipe);
            t.addRow(std::move(cells[i]));
        }
        t.addSeparator();
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("recipe/outcome agreement: %d of %d tried "
                "optimizations (recommended<->helped)\n",
                agree, total);
}

/** The ResultCache counters as a JSON object (shared by sweep/serve). */
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

int
cmdTable(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    util::Result<core::SweepRunner::Params> sp = parseSweepFlags(ap);
    if (!sp.ok())
        return failWith(sp.status());
    if (helpOut(ap, "table <workload> [flags]",
                "One workload's paper table: its rows on every platform "
                "with the recipe's verdicts."))
        return 0;
    if (ap.rest().empty())
        return usage();
    util::Result<workloads::WorkloadPtr> w =
        workloads::findWorkload(ap.rest().front());
    if (!w.ok())
        return failWith(w.status());
    ap.consumePositional(1);
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    std::vector<workloads::WorkloadPtr> wls;
    wls.push_back(w.take());
    const std::vector<core::SweepUnit> units =
        core::sweepUnits(platforms::allPlatforms(), wls);
    core::SweepRunner runner(*sp);
    util::Result<std::vector<core::SweepRunner::UnitResult>> res =
        runner.run(units);
    if (!res.ok())
        return failWith(res.status());

    printPaperTable(*res);
    return 0;
}

int
cmdSweep(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    util::Result<std::string> json = ap.stringFlag("--json");
    if (!json.ok())
        return failWith(json.status());
    util::Result<core::SweepRunner::Params> sp = parseSweepFlags(ap);
    if (!sp.ok())
        return failWith(sp.status());
    if (helpOut(ap, "sweep [flags]",
                "Every workload x platform walk through the parallel "
                "sweep runner."))
        return 0;
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    obs::MetricRegistry registry;
    if (!json->empty())
        sp->registry = &registry;

    const std::vector<workloads::WorkloadPtr> wls =
        workloads::allWorkloadsAndExtensions();
    const std::vector<core::SweepUnit> units =
        core::sweepUnits(platforms::allPlatforms(), wls);
    core::SweepRunner runner(*sp);
    util::Result<std::vector<core::SweepRunner::UnitResult>> res =
        runner.run(units);
    if (!res.ok())
        return failWith(res.status());

    FILE *rep = *json == "-" ? stderr : stdout;
    Table t({"Workload", "Proc", "Source", "BW_obs (GB/s)",
             "lat_avg (ns)", "n_avg", "Opt: measured", "paper"});
    size_t rows = 0;
    std::string last_workload;
    for (const core::SweepRunner::UnitResult &u : *res) {
        if (!last_workload.empty() && u.workload != last_workload)
            t.addSeparator();
        last_workload = u.workload;
        for (std::vector<std::string> &cells : unitRowCells(u)) {
            cells.insert(cells.begin(), u.workload);
            t.addRow(std::move(cells));
        }
        rows += u.rows.size();
    }
    std::fputs(t.render().c_str(), rep);
    // Note: no worker count here — `sweep --jobs 4` must stay
    // byte-identical to `--jobs 1`.
    const core::ResultCache::Stats cs = sp->cache->stats();
    std::fprintf(rep,
                 "sweep: %zu units, %zu rows — cache: %llu hits, %llu "
                 "misses, %llu disk loads, %llu spills\n",
                 res->size(), rows,
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.diskLoads),
                 static_cast<unsigned long long>(cs.spills));

    if (!json->empty()) {
        std::string out;
        util::JsonWriter w(out);
        w.beginObject(Layout::Block).key("units").beginArray(Layout::Block);
        for (const core::SweepRunner::UnitResult &u : *res) {
            w.beginObject()
                .member("workload", u.workload)
                .member("platform", u.platform)
                .key("rows")
                .beginArray(Layout::Block);
            for (const core::TableRow &row : u.rows) {
                w.beginObject()
                    .member("source", row.source)
                    .member("bw_gbs", row.bwGBs)
                    .member("pct_peak", row.pctPeak)
                    .member("latency_ns", row.latencyNs)
                    .member("n_avg", row.nAvg)
                    .member("opt", row.optLabel)
                    .member("speedup", row.speedup)
                    .member("paper_speedup", row.paperSpeedup)
                    .end();
            }
            w.end().end();
        }
        w.end().key("cache");
        writeCacheStats(w, cs);
        w.end();
        Status s = writeEnvelope(*json, "sweep", Status::okStatus(), 0, out,
                                 &registry);
        if (!s.ok())
            return failWith(s);
    }
    return 0;
}

int
cmdReproduce(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    util::Result<core::SweepRunner::Params> sp = parseSweepFlags(ap);
    if (!sp.ok())
        return failWith(sp.status());
    if (helpOut(ap, "reproduce [flags]",
                "Reproduce the paper's Tables IV-IX."))
        return 0;
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    const std::vector<workloads::WorkloadPtr> wls =
        workloads::allWorkloads();
    const std::vector<core::SweepUnit> units =
        core::sweepUnits(platforms::allPlatforms(), wls);
    core::SweepRunner runner(*sp);
    util::Result<std::vector<core::SweepRunner::UnitResult>> res =
        runner.run(units);
    if (!res.ok())
        return failWith(res.status());

    // sweepUnits() is workload-major, so each paper table's units are a
    // contiguous run of the result vector.
    const std::span<const core::SweepRunner::UnitResult> all(*res);
    size_t i = 0;
    for (const workloads::WorkloadPtr &w : wls) {
        std::printf("== %s: %s ==\n", w->name().c_str(),
                    w->routine().c_str());
        const size_t first = i;
        while (i < all.size() && all[i].workload == w->name())
            ++i;
        printPaperTable(all.subspan(first, i - first));
        std::printf("\n");
    }
    return 0;
}

/**
 * `lll search <workload> <platform> [opts ...] --axis name=spec ...`:
 * the bounds-pruned design-space autotuner (DESIGN.md §17).  The cross
 * product of the axes (plus any explicit `--point`s) is enumerated,
 * candidates whose analytic Little's-law ceiling proves them dominated
 * by a strictly cheaper simulated point are pruned before they cost a
 * simulation, and the survivors' Pareto frontier (bandwidth vs
 * MSHR+bank cost) is reported.  Output is byte-identical for any
 * `--jobs N` and across warm `--cache-dir` reruns.
 */
int
cmdSearch(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    search::SearchSpec spec;

    // The space, the knobs and the shared stage fields come off their
    // field lists, with the JSON decoder's ranges.
    util::FlagReader flags(ap);
    visitFields(flags, spec);
    if (!flags.status().ok())
        return failWith(flags.status());
    util::Result<bool> list_axes =
        ap.boolFlag("--list-axes", "list the known axes and exit");
    if (!list_axes.ok())
        return failWith(list_axes.status());
    util::Result<std::string> json = ap.stringFlag(
        "--json", "write the envelope report to FILE (\"-\" = stdout)");
    if (!json.ok())
        return failWith(json.status());
    visitFields(flags, static_cast<core::StageRequest &>(spec));
    if (!flags.status().ok())
        return failWith(flags.status());
    util::Result<core::SweepRunner::Params> sp = parseSweepFlags(ap);
    if (!sp.ok())
        return failWith(sp.status());
    util::Result<bool> all = ap.boolFlag(
        "--all", "print every candidate row, not just the frontier");
    if (!all.ok())
        return failWith(all.status());

    if (helpOut(ap,
                "search <workload> <platform> [opts ...] --axis "
                "name=spec ... [flags]",
                "Design-space autotuner: enumerate axes, prune by "
                "Little's-law ceiling, report the Pareto frontier."))
        return 0;

    if (*list_axes) {
        Table t({"axis", "values"});
        for (const search::AxisDef &def : search::knownAxes())
            t.addRow({def.name, def.help});
        std::fputs(t.render().c_str(), stdout);
        return 0;
    }

    if (ap.rest().size() < 2) {
        return failWith(Status::error(
            ErrorCode::InvalidArgument,
            "search needs a workload and a platform"));
    }
    spec.workloadName = ap.rest()[0];
    spec.platformName = ap.rest()[1];
    ap.consumePositional(2);
    util::Result<OptSet> opts = parseOpts(ap.rest());
    if (!opts.ok())
        return failWith(opts.status());
    spec.opts = opts.take();

    if (spec.axes.empty() && spec.points.empty()) {
        return failWith(Status::error(
            ErrorCode::InvalidArgument,
            "search needs at least one --axis (or --point); see "
            "--list-axes"));
    }

    obs::MetricRegistry registry;
    search::Searcher::Params pp;
    pp.jobs = sp->jobs;
    pp.cache = sp->cache;
    pp.registry = &registry;
    search::Searcher searcher(pp);
    util::Result<search::SearchResult> result = searcher.run(spec);
    if (!result.ok())
        return failWith(result.status());

    FILE *rep = *json == "-" ? stderr : stdout;
    std::fputs(search::renderSearchText(*result, *all).c_str(), rep);

    if (!json->empty()) {
        Status s = writeEnvelope(*json, "search", Status::okStatus(), 0,
                                 search::searchDataJson(*result, true),
                                 &registry);
        if (!s.ok())
            return failWith(s);
    }
    return 0;
}

net::Listener *g_serveListener = nullptr;

extern "C" void
serveSignalHandler(int)
{
    // requestShutdown is async-signal-safe (atomic bump + pipe write);
    // the second signal abandons the drain and exits immediately.
    if (g_serveListener != nullptr)
        g_serveListener->requestShutdown();
}

/** p50/p90/p99 of @p h (nanosecond samples) as "a/b/c" in ms. */
std::string
fmtPercentilesMs(const obs::Log2Histogram &h)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f/%.2f/%.2f",
                  h.percentile(0.50) / 1e6, h.percentile(0.90) / 1e6,
                  h.percentile(0.99) / 1e6);
    return buf;
}

/** The same percentiles as a JSON object (ms). */
void
writePercentilesMs(util::JsonWriter &w, const obs::Log2Histogram &h)
{
    w.beginObject()
        .precision(6)
        .member("p50", h.percentile(0.50) / 1e6)
        .member("p90", h.percentile(0.90) / 1e6)
        .member("p99", h.percentile(0.99) / 1e6)
        .member("samples", h.total())
        .end();
}

/**
 * `lll serve --listen`: the socket front-end (DESIGN.md §14).  One
 * poll() event loop multiplexes persistent TCP/unix connections onto
 * `--jobs` workers behind a bounded admission gate: at most
 * `--max-inflight` requests run or queue at once and the excess is
 * answered immediately with a structured `unavailable` response
 * instead of being buffered toward collapse.  SIGTERM/SIGINT drain:
 * admitted work finishes and flushes, then the process exits 0.
 */
int
cmdServeListen(ArgParser &ap, const std::string &listen,
               const std::string &listen_unix, int jobs,
               int stats_interval, bool request_telemetry,
               const std::string &json_path, core::ResultCache &cache)
{
    net::ListenerParams lp;
    if (!listen.empty()) {
        Status hp = net::parseHostPort(listen, &lp.tcpHost, &lp.tcpPort);
        if (!hp.ok())
            return failWith(hp);
    }
    lp.unixPath = listen_unix;
    lp.workers = jobs < 1 ? 1 : jobs;
    lp.statsIntervalResponses = stats_interval;

    util::FlagReader flags(ap);
    visitFields(flags, lp);
    if (!flags.status().ok())
        return failWith(flags.status());
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    net::ServeHandlerParams hp;
    hp.cache = &cache;
    hp.requestTelemetry = request_telemetry;
    lp.handler = net::ServeHandler(hp);
    obs::MetricRegistry registry;
    lp.registry = &registry;

    // Warm every platform's X-Mem profile once, up front: worker
    // threads must never race to measure + write the same profile
    // file on their first request.
    for (const platforms::Platform &p : platforms::allPlatforms())
        (void)profileFor(p);

    const std::string tcp_host = lp.tcpHost;
    net::Listener listener(std::move(lp));
    Status started = listener.start();
    if (!started.ok())
        return failWith(started);

    g_serveListener = &listener;
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGINT, serveSignalHandler);
    if (!listen.empty()) {
        // Parseable by scripts that bind port 0 (the CI smoke does).
        std::fprintf(stderr, "serve: listening on %s:%d\n",
                     tcp_host.c_str(), listener.tcpPort());
    }
    if (!listen_unix.empty()) {
        std::fprintf(stderr, "serve: listening on unix:%s\n",
                     listen_unix.c_str());
    }
    std::fflush(stderr);

    Status ran = listener.run();
    g_serveListener = nullptr;
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);

    auto count = [&registry](const char *name) {
        return static_cast<unsigned long long>(
            registry.counter(name).value());
    };
    std::fprintf(
        stderr,
        "serve: %llu requests on %llu connections — %llu admitted, "
        "%llu shed, %llu malformed, %llu failed; request p50/p90/p99 "
        "%s ms, queue wait %s ms\n",
        count(util::names::kNetRequestsReceivedTotal),
        count(util::names::kNetConnsAcceptedTotal),
        count(util::names::kNetRequestsAdmittedTotal),
        count(util::names::kNetRequestsShedTotal),
        count(util::names::kNetRequestsMalformedTotal),
        count(util::names::kNetRequestsFailedTotal),
        fmtPercentilesMs(registry.histogram(util::names::kNetLatencyRequestNs))
            .c_str(),
        fmtPercentilesMs(
            registry.histogram(util::names::kNetLatencyQueueWaitNs))
            .c_str());

    const int exit_code = ran.ok() ? 0 : util::exitCodeFor(ran.code());
    if (!json_path.empty()) {
        std::string data;
        util::JsonWriter w(data);
        w.beginObject(Layout::Block)
            .member("requests", count(util::names::kNetRequestsReceivedTotal))
            .member("admitted", count(util::names::kNetRequestsAdmittedTotal))
            .member("shed", count(util::names::kNetRequestsShedTotal))
            .member("malformed",
                    count(util::names::kNetRequestsMalformedTotal))
            .member("failed", count(util::names::kNetRequestsFailedTotal))
            .member("responses", count(util::names::kNetResponsesTotal))
            .key("connections")
            .beginObject()
            .member("accepted", count(util::names::kNetConnsAcceptedTotal))
            .member("rejected", count(util::names::kNetConnsRejectedTotal))
            .member("closed", count(util::names::kNetConnsClosedTotal))
            .end()
            .member("watchdog_trips",
                    count(util::names::kNetWatchdogTripsTotal))
            .key("latency_ms")
            .beginObject()
            .key("request");
        writePercentilesMs(
            w, registry.histogram(util::names::kNetLatencyRequestNs));
        w.key("queue_wait");
        writePercentilesMs(
            w, registry.histogram(util::names::kNetLatencyQueueWaitNs));
        w.key("handler");
        writePercentilesMs(
            w, registry.histogram(util::names::kNetLatencyHandlerNs));
        w.end().key("cache");
        writeCacheStats(w, cache.stats());
        w.end();
        Status s = writeEnvelope(json_path, "serve", ran, exit_code, data,
                                 &registry);
        if (!s.ok())
            return failWith(s);
    }
    if (!ran.ok())
        return failWith(ran);
    return 0;
}

int
cmdServe(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    util::Result<std::string> batch = ap.stringFlag("--batch");
    if (!batch.ok())
        return failWith(batch.status());
    util::Result<std::string> json = ap.stringFlag("--json");
    if (!json.ok())
        return failWith(json.status());
    util::Result<int> jobs = ap.intFlag("--jobs", 1);
    if (!jobs.ok())
        return failWith(jobs.status());
    util::Result<int> stats_interval = ap.intFlag("--stats-interval", 0);
    if (!stats_interval.ok())
        return failWith(stats_interval.status());
    util::Result<bool> request_telemetry =
        ap.boolFlag("--request-telemetry");
    if (!request_telemetry.ok())
        return failWith(request_telemetry.status());
    util::Result<std::string> listen = ap.stringFlag("--listen");
    if (!listen.ok())
        return failWith(listen.status());
    util::Result<std::string> listen_unix =
        ap.stringFlag("--listen-unix");
    if (!listen_unix.ok())
        return failWith(listen_unix.status());
    core::ResultCache &cache = core::ResultCache::global();
    Status cache_flags = applyCacheFlags(ap, cache);
    if (!cache_flags.ok())
        return failWith(cache_flags);
    if (ap.helpRequested()) {
        // Register the --listen-mode flags too, so the one help page
        // covers both serve modes (they normally register inside
        // cmdServeListen, which only runs with --listen given).
        net::ListenerParams listen_flags;
        util::FlagReader help(ap);
        visitFields(help, listen_flags);
        if (helpOut(ap,
                    "serve [--batch FILE] [flags]  |  serve --listen "
                    "HOST:PORT | --listen-unix PATH [flags]",
                    "Batched JSON-lines run service; --listen serves "
                    "the same protocol over sockets."))
            return 0;
    }
    if (!listen->empty() || !listen_unix->empty()) {
        if (!batch->empty()) {
            return failWith(Status::error(
                ErrorCode::InvalidArgument,
                "--batch and --listen are mutually exclusive"));
        }
        return cmdServeListen(ap, *listen, *listen_unix, *jobs,
                              *stats_interval, *request_telemetry,
                              *json, cache);
    }
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    std::vector<std::string> lines;
    std::string line;
    if (!batch->empty()) {
        std::ifstream in(*batch);
        if (!in) {
            return failWith(Status::error(ErrorCode::IoError,
                                          "cannot read '%s'",
                                          batch->c_str()));
        }
        while (std::getline(in, line))
            lines.push_back(line);
    } else {
        while (std::getline(std::cin, line))
            lines.push_back(line);
    }

    obs::MetricRegistry registry;
    service::RunService::Params sp;
    sp.jobs = *jobs;
    sp.cache = &cache;
    sp.registry = &registry;
    service::RunService svc(sp);
    const std::vector<service::RunResponse> responses =
        svc.serveLines(lines);

    // stdout carries exactly one response line per request — nothing
    // else — so a warm rerun is byte-identical and pipeable; the human
    // summary goes to stderr.  --request-telemetry adds the wall-clock
    // "timing" object per line and therefore opts out of byte
    // identity; --stats-interval N prints a cumulative p50/p90/p99
    // stat line to stderr every N responses.
    size_t failed = 0;
    size_t written = 0;
    obs::Log2Histogram stat_total, stat_queue, stat_sim;
    for (const service::RunResponse &r : responses) {
        if (!r.status.ok())
            ++failed;
        const std::string rendered =
            service::renderRunResponse(r, *request_telemetry);
        std::fwrite(rendered.data(), 1, rendered.size(), stdout);
        std::fputc('\n', stdout);
        ++written;
        if (*stats_interval > 0) {
            stat_total.sample(r.timing.totalNs);
            stat_queue.sample(r.timing.queueWaitNs);
            stat_sim.sample(r.timing.simulateNs);
            if (written % static_cast<size_t>(*stats_interval) == 0) {
                std::fprintf(
                    stderr,
                    "serve stats: %zu responses — total p50/p90/p99 "
                    "%.2f/%.2f/%.2f ms, queue %.2f/%.2f/%.2f ms, "
                    "simulate %.2f/%.2f/%.2f ms\n",
                    written, stat_total.percentile(0.50) / 1e6,
                    stat_total.percentile(0.90) / 1e6,
                    stat_total.percentile(0.99) / 1e6,
                    stat_queue.percentile(0.50) / 1e6,
                    stat_queue.percentile(0.90) / 1e6,
                    stat_queue.percentile(0.99) / 1e6,
                    stat_sim.percentile(0.50) / 1e6,
                    stat_sim.percentile(0.90) / 1e6,
                    stat_sim.percentile(0.99) / 1e6);
            }
        }
    }

    const uint64_t units =
        registry.counter(util::names::kServiceUnitsTotal).value();
    const uint64_t coalesced =
        registry.counter(util::names::kServiceCoalescedRequestsTotal).value();
    const core::ResultCache::Stats cs = cache.stats();
    std::fprintf(stderr,
                 "serve: %zu requests (%zu failed), %llu units "
                 "simulated, %llu coalesced — cache: %llu hits, %llu "
                 "misses, %llu evictions, %llu spill evictions\n",
                 responses.size(), failed,
                 static_cast<unsigned long long>(units),
                 static_cast<unsigned long long>(coalesced),
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.evictions),
                 static_cast<unsigned long long>(cs.spillEvictions));

    Status verdict = Status::okStatus();
    if (failed) {
        verdict = Status::error(ErrorCode::FailedPrecondition,
                                "%zu of %zu requests failed", failed,
                                responses.size());
    }
    const int exit_code =
        verdict.ok() ? 0 : util::exitCodeFor(verdict.code());

    if (!json->empty()) {
        std::string data;
        util::JsonWriter w(data);
        w.beginObject(Layout::Block)
            .member("requests", responses.size())
            .member("failed", failed)
            .member("units", units)
            .member("coalesced", coalesced)
            .key("cache");
        writeCacheStats(w, cs);
        w.end();
        Status s = writeEnvelope(*json, "serve", verdict, exit_code, data,
                                 &registry);
        if (!s.ok())
            return failWith(s);
    }
    return exit_code;
}

/**
 * `lll bench-serve`: the load generator for the socket front-end.
 * Drives `--connections` persistent clients, each keeping up to
 * `--pipeline` requests in flight, at `--qps` aggregate (0 floods) for
 * `--duration-s`, then reports achieved throughput and latency
 * percentiles split by response class — admitted (`ok`) vs shed
 * (`unavailable`) — and checks Little's law on the run: in-flight L
 * against throughput × mean latency.  Shedding is the server working
 * as designed, so it never fails the run; request-level failures or
 * connection errors exit 3.
 */
int
cmdBenchServe(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    net::LoadGenParams lg;
    util::Result<std::string> connect = ap.stringFlag("--connect");
    if (!connect.ok())
        return failWith(connect.status());
    util::Result<std::string> connect_unix =
        ap.stringFlag("--connect-unix");
    if (!connect_unix.ok())
        return failWith(connect_unix.status());
    util::FlagReader flags(ap);
    visitFields(flags, lg);
    if (!flags.status().ok())
        return failWith(flags.status());
    util::Result<std::string> requests = ap.stringFlag("--requests");
    if (!requests.ok())
        return failWith(requests.status());
    util::Result<std::string> json = ap.stringFlag("--json");
    if (!json.ok())
        return failWith(json.status());
    if (helpOut(ap,
                "bench-serve --connect HOST:PORT | --connect-unix "
                "PATH [flags]",
                "Load generator for the serve socket front-end."))
        return 0;
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    if (connect->empty() && connect_unix->empty()) {
        return failWith(Status::error(
            ErrorCode::InvalidArgument,
            "bench-serve needs --connect HOST:PORT or --connect-unix "
            "PATH"));
    }
    if (!connect->empty()) {
        Status hp = net::parseHostPort(*connect, &lg.host, &lg.port);
        if (!hp.ok())
            return failWith(hp);
    }
    lg.unixPath = *connect_unix;
    if (!requests->empty()) {
        std::ifstream in(*requests);
        if (!in) {
            return failWith(Status::error(ErrorCode::IoError,
                                          "cannot read '%s'",
                                          requests->c_str()));
        }
        std::string line;
        while (std::getline(in, line)) {
            if (line.find_first_not_of(" \t\r") != std::string::npos)
                lg.requestLines.push_back(line);
        }
        if (lg.requestLines.empty()) {
            return failWith(Status::error(ErrorCode::InvalidArgument,
                                          "'%s' has no request lines",
                                          requests->c_str()));
        }
    } else {
        // A small, fast request so the default run exercises the
        // server rather than one giant simulation.
        core::StageRequest request;
        request.platformName = "skl";
        request.workloadName = "isx";
        request.cores = 6;
        request.warmupUs = 5;
        request.measureUs = 10;
        lg.requestLines = {core::requestLine(request)};
    }

    std::signal(SIGPIPE, SIG_IGN);
    util::Result<net::LoadGenReport> rep = net::runLoadGen(lg);
    if (!rep.ok())
        return failWith(rep.status());

    std::printf("bench-serve: %llu sent, %llu received in %.2f s — "
                "%.1f req/s achieved\n",
                static_cast<unsigned long long>(rep->sent),
                static_cast<unsigned long long>(rep->received),
                rep->wallS, rep->achievedQps);
    std::printf("  ok          %8llu  p50/p90/p99 %s ms\n",
                static_cast<unsigned long long>(rep->ok),
                fmtPercentilesMs(rep->okLatencyNs).c_str());
    std::printf("  unavailable %8llu  p50/p90/p99 %s ms\n",
                static_cast<unsigned long long>(rep->unavailable),
                fmtPercentilesMs(rep->shedLatencyNs).c_str());
    std::printf("  failed      %8llu\n",
                static_cast<unsigned long long>(rep->failed));
    std::printf("  Little's law: L %.3f in flight vs λW %.3f (λ %.1f "
                "req/s, W %.3f ms), residual %.4f\n",
                rep->inflightAvg, rep->achievedQps * rep->meanLatencyS,
                rep->achievedQps, rep->meanLatencyS * 1e3,
                rep->littlesResidual);
    for (const std::string &e : rep->errors)
        std::fprintf(stderr, "bench-serve: %s\n", e.c_str());

    Status verdict = Status::okStatus();
    if (rep->failed > 0 || rep->connectionErrors > 0) {
        verdict = Status::error(
            ErrorCode::IoError,
            "%llu failed responses, %llu connection errors",
            static_cast<unsigned long long>(rep->failed),
            static_cast<unsigned long long>(rep->connectionErrors));
    }
    const int exit_code =
        verdict.ok() ? 0 : util::exitCodeFor(verdict.code());

    if (!json->empty()) {
        std::string data;
        util::JsonWriter w(data);
        w.beginObject(Layout::Block)
            .precision(6)
            .member("sent", rep->sent)
            .member("received", rep->received)
            .member("ok", rep->ok)
            .member("unavailable", rep->unavailable)
            .member("failed", rep->failed)
            .member("connection_errors", rep->connectionErrors)
            .member("wall_s", rep->wallS)
            .member("achieved_qps", rep->achievedQps)
            .key("littles_law")
            .beginObject()
            .member("l", rep->inflightAvg)
            .member("lambda_rps", rep->achievedQps)
            .member("w_ms", rep->meanLatencyS * 1e3)
            .member("residual", rep->littlesResidual)
            .end()
            .key("latency_ms")
            .beginObject()
            .key("all");
        writePercentilesMs(w, rep->latencyNs);
        w.key("ok");
        writePercentilesMs(w, rep->okLatencyNs);
        w.key("unavailable");
        writePercentilesMs(w, rep->shedLatencyNs);
        w.end().end();
        Status s = writeEnvelope(*json, "bench-serve", verdict, exit_code,
                                 data, nullptr);
        if (!s.ok())
            return failWith(s);
    }
    if (!verdict.ok())
        return failWith(verdict);
    return 0;
}

/**
 * `lll bench`: run the perf microbenchmark kernels (src/perf) for
 * repeated trials and report events/sec (min/median/IQR across trials)
 * plus per-item latency quantiles.  `--json FILE` writes the versioned
 * BENCH report in the standard envelope; `--compare BASELINE` applies
 * the perf ratchet and exits 3 on regression beyond `--tolerance`.
 */
int
cmdBench(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    perf::TrialParams tp;
    util::Result<int> trials = ap.intFlag("--trials", tp.trials);
    if (!trials.ok())
        return failWith(trials.status());
    tp.trials = *trials;
    util::Result<double> warmup = ap.doubleFlag("--warmup-ms",
                                                tp.warmupMs);
    if (!warmup.ok())
        return failWith(warmup.status());
    tp.warmupMs = *warmup;
    util::Result<double> measure = ap.doubleFlag("--measure-ms",
                                                 tp.measureMs);
    if (!measure.ok())
        return failWith(measure.status());
    tp.measureMs = *measure;
    util::Result<std::string> kernel = ap.stringFlag("--kernel");
    if (!kernel.ok())
        return failWith(kernel.status());
    util::Result<std::string> rev = ap.stringFlag("--rev");
    if (!rev.ok())
        return failWith(rev.status());
    util::Result<std::string> json = ap.stringFlag("--json");
    if (!json.ok())
        return failWith(json.status());
    util::Result<std::string> compare = ap.stringFlag("--compare");
    if (!compare.ok())
        return failWith(compare.status());
    util::Result<double> tolerance = ap.doubleFlag("--tolerance", 0.15);
    if (!tolerance.ok())
        return failWith(tolerance.status());
    if (helpOut(ap, "bench [flags]",
                "Microbenchmark harness; --compare applies the perf "
                "ratchet."))
        return 0;
    if (*tolerance >= 1.0) {
        return failWith(Status::error(ErrorCode::InvalidArgument,
                                      "--tolerance wants a fraction "
                                      "below 1 (e.g. 0.15)"));
    }
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    std::vector<const perf::KernelInfo *> selected;
    if (kernel->empty()) {
        for (const perf::KernelInfo &k : perf::kernels())
            selected.push_back(&k);
    } else {
        const perf::KernelInfo *k = perf::findKernel(*kernel);
        if (!k) {
            return failWith(Status::error(ErrorCode::InvalidArgument,
                                          "unknown bench kernel '%s'",
                                          kernel->c_str()));
        }
        selected.push_back(k);
    }

    perf::BenchReport report;
    report.rev = rev->empty() ? "dev" : *rev;
    report.trials = tp.trials;
    report.warmupMs = tp.warmupMs;
    report.measureMs = tp.measureMs;

    // Per-kernel latency histograms land in a registry so the envelope
    // telemetry shares the exporter schema with every other command.
    obs::MetricRegistry registry;
    FILE *rep = *json == "-" ? stderr : stdout;
    std::fprintf(rep, "%-12s %12s %12s %12s %8s %8s %8s\n", "kernel",
                 "median ev/s", "min ev/s", "IQR ev/s", "p50 ns",
                 "p90 ns", "p99 ns");
    for (const perf::KernelInfo *k : selected) {
        obs::ScopedSpan span(util::names::kBenchSpanPrefix + k->name);
        perf::KernelStats stats = perf::runKernel(*k, tp);
        std::fprintf(rep,
                     "%-12s %12.4g %12.4g %12.4g %8.1f %8.1f %8.1f\n",
                     stats.name.c_str(), stats.medianEps, stats.minEps,
                     stats.iqrEps, stats.p50ItemNs, stats.p90ItemNs,
                     stats.p99ItemNs);
        registry.histogram(util::names::kPerfKernelPrefix + k->name + ".item_ns")
            .merge(stats.itemNs);
        report.kernels.push_back(std::move(stats));
    }

    Status verdict = Status::okStatus();
    if (!compare->empty()) {
        util::Result<perf::BenchReport> baseline =
            perf::parseBenchReportFile(*compare);
        if (!baseline.ok())
            return failWith(baseline.status());
        if (!kernel->empty()) {
            // A single-kernel run gates only that kernel: drop the
            // other baseline entries so they do not read as lost
            // coverage (CI uses this for a dedicated tighter ratchet
            // on the event-queue kernel).
            std::vector<perf::KernelStats> &ks = baseline->kernels;
            ks.erase(std::remove_if(ks.begin(), ks.end(),
                                    [&](const perf::KernelStats &s) {
                                        return s.name != *kernel;
                                    }),
                     ks.end());
            if (ks.empty()) {
                return failWith(Status::error(
                    ErrorCode::InvalidArgument,
                    "baseline %s has no entry for kernel '%s'",
                    compare->c_str(), kernel->c_str()));
            }
        }
        perf::BenchComparison cmp = perf::compareBenchReports(
            *baseline, report, *tolerance);
        std::fputs(cmp.render().c_str(), rep);
        if (!cmp.ok()) {
            verdict = Status::error(
                ErrorCode::FailedPrecondition,
                "events/sec regressed beyond %.0f%% of baseline %s",
                *tolerance * 100.0, compare->c_str());
        }
    }
    const int exit_code =
        verdict.ok() ? 0 : util::exitCodeFor(verdict.code());

    if (!json->empty()) {
        Status s = writeEnvelope(*json, "bench", verdict, exit_code,
                                 perf::benchReportJson(report), &registry);
        if (!s.ok())
            return failWith(s);
    }
    return exit_code;
}

int
cmdRoofline(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    if (helpOut(ap, "roofline <platform>",
                "Roofline roofs plus the MSHR bandwidth ceilings."))
        return 0;
    if (ap.rest().empty())
        return usage();
    util::Result<platforms::Platform> p =
        platforms::findPlatform(ap.rest().front());
    if (!p.ok())
        return failWith(p.status());
    ap.consumePositional(1);
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);
    util::Result<xmem::LatencyProfile> prof = profileFor(*p);
    if (!prof.ok())
        return failWith(prof.status());
    core::Roofline roof(*p, prof.take());
    std::printf("%s: peak %.0f GFlop/s, BW roof %.0f GB/s, L1-MSHR "
                "ceiling %.0f GB/s, L2-MSHR ceiling %.0f GB/s, ridge "
                "%.2f flop/B\n",
                p->name.c_str(), roof.peakGFlops(), roof.peakGBs(),
                roof.mshrCeilingGBs(core::MshrLevel::L1, p->totalCores),
                roof.mshrCeilingGBs(core::MshrLevel::L2, p->totalCores),
                roof.ridgeIntensity());
    return 0;
}

int
cmdSelftest(int argc, char **argv)
{
    faultinject::Options opts;
    ArgParser ap(argc, argv, 2);
    util::Result<int> iters =
        ap.intFlag("--iterations", opts.fuzzIterations);
    if (!iters.ok())
        return failWith(iters.status());
    opts.fuzzIterations = *iters;
    util::Result<uint64_t> seed = ap.uint64Flag("--seed", opts.seed);
    if (!seed.ok())
        return failWith(seed.status());
    opts.seed = *seed;
    util::Result<bool> verbose = ap.boolFlag("--verbose");
    if (!verbose.ok())
        return failWith(verbose.status());
    opts.verbose = *verbose;
    if (helpOut(ap, "selftest [flags]",
                "Run the fault-injection self-test harness."))
        return 0;
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    faultinject::Report report = faultinject::runAll(opts);
    std::fputs(report.render(opts.verbose).c_str(), stdout);
    return report.allPassed() ? 0 : 1;
}

/** One platform x workload x variant the linter examines. */
struct LintJob
{
    platforms::Platform platform;
    workloads::WorkloadPtr workload;
    OptSet opts;
};

void
printDiags(FILE *rep, const util::DiagnosticList &diags)
{
    for (const util::Diagnostic &d : diags.all())
        std::fprintf(rep, "%s\n", d.toString().c_str());
}

int
cmdLint(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    util::Result<std::string> json = ap.stringFlag("--json");
    if (!json.ok())
        return failWith(json.status());

    // `lint --profile FILE` lints a cached latency-profile file instead
    // of workload configs; the two modes do not mix.
    util::Result<std::string> profile = ap.stringFlag("--profile");
    if (!profile.ok())
        return failWith(profile.status());
    if (!profile->empty()) {
        Status extra = ap.finish();
        if (!extra.ok())
            return failWith(extra);
        util::DiagnosticList diags =
            analysis::lintProfileFile(*profile);
        FILE *rep = *json == "-" ? stderr : stdout;
        printDiags(rep, diags);
        std::fprintf(rep,
                     "profile lint: %s — %zu errors, %zu warnings, %zu "
                     "notes\n",
                     profile->c_str(), diags.errorCount(),
                     diags.warningCount(), diags.noteCount());

        Status verdict = Status::okStatus();
        if (diags.errorCount()) {
            verdict = Status::error(ErrorCode::FailedPrecondition,
                                    "%zu profile lint error(s)",
                                    diags.errorCount());
        }
        const int exit_code =
            verdict.ok() ? 0 : util::exitCodeFor(verdict.code());
        if (!json->empty()) {
            std::string out;
            util::JsonWriter w(out);
            w.beginObject(Layout::Block)
                .key("profiles")
                .beginArray(Layout::Block)
                .beginObject()
                .member("path", *profile)
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
            Status s = writeEnvelope(*json, "lint", verdict, exit_code, out,
                                     nullptr);
            if (!s.ok())
                return failWith(s);
        }
        return exit_code;
    }

    util::Result<bool> determinism = ap.boolFlag("--determinism");
    if (!determinism.ok())
        return failWith(determinism.status());

    // `--seeds A,B,...` overrides the alternate tie-break seeds the
    // determinism check runs against.  The baseline (seed 0, insertion
    // order) is always prepended; the listed seeds must be nonzero so
    // every comparison is baseline-vs-permuted.
    util::Result<std::string> seeds_flag = ap.stringFlag("--seeds");
    if (!seeds_flag.ok())
        return failWith(seeds_flag.status());
    analysis::DeterminismOptions det_opts;
    if (!seeds_flag->empty()) {
        if (!*determinism) {
            return failWith(Status::error(
                ErrorCode::InvalidArgument,
                "--seeds requires --determinism"));
        }
        det_opts.seeds.assign(1, 0);
        std::stringstream ss(*seeds_flag);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            char *end = nullptr;
            errno = 0;
            const uint64_t seed = std::strtoull(tok.c_str(), &end, 0);
            if (tok.empty() || end == nullptr || *end != '\0' ||
                errno == ERANGE) {
                return failWith(Status::error(
                    ErrorCode::InvalidArgument,
                    "--seeds: '%s' is not a valid seed", tok.c_str()));
            }
            if (seed == 0) {
                return failWith(Status::error(
                    ErrorCode::InvalidArgument,
                    "--seeds: seed 0 is the implicit baseline; list "
                    "only nonzero tie-break seeds"));
            }
            det_opts.seeds.push_back(seed);
        }
        if (det_opts.seeds.size() < 2) {
            return failWith(Status::error(
                ErrorCode::InvalidArgument,
                "--seeds: expected at least one nonzero seed"));
        }
    }

    if (helpOut(ap,
                "lint [<workload> <platform> [opts ...]] [flags]  |  "
                "lint --profile FILE [--json FILE]",
                "Static spec/config analyzer; --determinism adds the "
                "event-order race check."))
        return 0;

    // Operands: none (scan the whole registry) or workload platform
    // [opts...].  Unlike analyze/trace, an *infeasible* variant is a
    // valid lint request — that is the point of linting — so opts are
    // parsed but never pre-checked against the platform.
    std::vector<LintJob> jobs;
    if (ap.rest().empty()) {
        for (const platforms::Platform &p : platforms::allPlatforms()) {
            for (workloads::WorkloadPtr &w :
                 workloads::allWorkloadsAndExtensions()) {
                jobs.push_back({p, std::move(w), OptSet()});
            }
        }
    } else if (ap.rest().size() == 1) {
        return usage();
    } else {
        util::Result<workloads::WorkloadPtr> w =
            workloads::findWorkload(ap.rest()[0]);
        if (!w.ok())
            return failWith(w.status());
        util::Result<platforms::Platform> p =
            platforms::findPlatform(ap.rest()[1]);
        if (!p.ok())
            return failWith(p.status());
        ap.consumePositional(2);
        util::Result<OptSet> opts = parseOpts(ap.rest());
        if (!opts.ok())
            return failWith(opts.status());
        jobs.push_back({p.take(), w.take(), opts.take()});
    }

    FILE *rep = *json == "-" ? stderr : stdout;
    size_t errors = 0, warnings = 0, notes = 0, det_failures = 0;
    std::string data;
    util::JsonWriter w(data);
    w.beginObject(Layout::Block).key("platforms").beginArray(Layout::Block);

    // Platform-level findings once per distinct platform, in job order.
    std::vector<std::string> seen_platforms;
    for (const LintJob &job : jobs) {
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
    for (const LintJob &job : jobs) {
        analysis::ConfigLint cl = analysis::lintConfig(
            job.platform, *job.workload, job.opts);
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
            analysis::writeBounds(w, cl.bounds);
        else
            w.null();
        w.key("diagnostics");
        cl.diagnostics.writeJson(w);
        w.end();
    }

    w.end().key("determinism").beginArray(Layout::Block);
    if (*determinism) {
        for (const LintJob &job : jobs) {
            // A variant the platform cannot even build was already
            // reported as infeasible above; nothing to run.
            if (!job.platform
                     .trySysParams(job.platform.totalCores,
                                   job.opts.smtWays())
                     .ok()) {
                continue;
            }
            util::Result<analysis::DeterminismReport> r =
                analysis::checkRunDeterminism(job.platform,
                                              *job.workload, job.opts,
                                              det_opts);
            if (!r.ok())
                return failWith(r.status());
            const std::string subject =
                job.platform.name + "/" + job.workload->name() + " [" +
                job.opts.label() + "]";
            printDiags(rep, r->diagnostics);
            std::fprintf(rep,
                         "%s: determinism %s (%zu seeds, %zu metrics)\n",
                         subject.c_str(),
                         r->deterministic ? "ok" : "FAILED",
                         r->seedsRun, r->metricsCompared);
            if (!r->deterministic)
                ++det_failures;
            w.beginObject()
                .member("subject", subject)
                .member("deterministic", r->deterministic)
                .member("seeds", r->seedsRun)
                .member("metrics", r->metricsCompared)
                .key("diagnostics");
            r->diagnostics.writeJson(w);
            w.end();
        }
    }
    w.end();

    std::fprintf(rep,
                 "lint: %zu configs on %zu platforms — %zu errors, %zu "
                 "warnings, %zu notes",
                 jobs.size(), seen_platforms.size(), errors, warnings,
                 notes);
    if (*determinism)
        std::fprintf(rep, ", %zu determinism failures", det_failures);
    std::fprintf(rep, "\n");

    // The exit decision is made *before* the envelope is written so
    // the export carries the authoritative status/exit pair.
    Status verdict = Status::okStatus();
    if (det_failures) {
        verdict = Status::error(ErrorCode::Internal,
                                "%zu determinism failure(s)",
                                det_failures);
    } else if (errors) {
        verdict = Status::error(ErrorCode::FailedPrecondition,
                                "%zu lint error(s)", errors);
    }
    const int exit_code =
        verdict.ok() ? 0 : util::exitCodeFor(verdict.code());

    if (!json->empty()) {
        w.key("summary")
            .beginObject()
            .member("configs", jobs.size())
            .member("errors", errors)
            .member("warnings", warnings)
            .member("notes", notes)
            .member("determinism_failures", det_failures)
            .end()
            .end();
        Status s = writeEnvelope(*json, "lint", verdict, exit_code, data,
                                 nullptr);
        if (!s.ok())
            return failWith(s);
    }
    return exit_code;
}

/**
 * `lll audit [--root DIR] [--json FILE] [--fix-plan]`: run the in-tree
 * source auditor (src/audit, DESIGN.md §15) over the repo's src/ and
 * tools/ trees.  Without --root the repo root is found by walking up
 * from the working directory, so the command works from a build tree.
 * Exit 0 on a clean tree, 3 (bad input: the *source* is the input)
 * when any LLL-SRC-1xx error fires — the same verdict shape as lint.
 */
int
cmdAudit(int argc, char **argv)
{
    ArgParser ap(argc, argv, 2);
    util::Result<std::string> json = ap.stringFlag("--json");
    if (!json.ok())
        return failWith(json.status());
    util::Result<std::string> root = ap.stringFlag("--root");
    if (!root.ok())
        return failWith(root.status());
    util::Result<bool> fix_plan = ap.boolFlag("--fix-plan");
    if (!fix_plan.ok())
        return failWith(fix_plan.status());
    if (helpOut(ap, "audit [flags]",
                "Run the in-tree source auditor (layering, name "
                "registries, API hygiene)."))
        return 0;
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    audit::AuditConfig config;
    if (root->empty()) {
        util::Result<std::string> found = audit::findRepoRoot(".");
        if (!found.ok())
            return failWith(found.status());
        config.root = found.take();
    } else {
        config.root = *root;
    }

    util::Result<audit::AuditReport> report = audit::runAudit(config);
    if (!report.ok())
        return failWith(report.status());

    FILE *rep = *json == "-" ? stderr : stdout;
    std::fputs(report->renderText().c_str(), rep);
    if (*fix_plan)
        std::fputs(report->renderFixPlan().c_str(), rep);

    Status verdict = Status::okStatus();
    if (report->diagnostics.errorCount()) {
        verdict = Status::error(ErrorCode::FailedPrecondition,
                                "%zu audit error(s)",
                                report->diagnostics.errorCount());
    }
    const int exit_code =
        verdict.ok() ? 0 : util::exitCodeFor(verdict.code());
    if (!json->empty()) {
        Status s = writeEnvelope(*json, "audit", verdict, exit_code,
                                 report->renderJson(), nullptr);
        if (!s.ok())
            return failWith(s);
    }
    return exit_code;
}

/**
 * Dispatch @p cmd with argv[1] == cmd.  Factored out of main() so
 * cmdProfile can run any subcommand under a root span; -1 means the
 * command is unknown (main turns that into usage()).
 */
int
runCommand(const std::string &cmd, int argc, char **argv)
{
    if (cmd == "platforms")
        return cmdPlatforms(argc, argv);
    if (cmd == "workloads")
        return cmdWorkloads(argc, argv);
    if (cmd == "vendors")
        return cmdVendors(argc, argv);
    if (cmd == "characterize")
        return cmdCharacterize(argc, argv);
    if (cmd == "analyze")
        return cmdAnalyze(argc, argv);
    if (cmd == "trace")
        return cmdTrace(argc, argv);
    if (cmd == "walk")
        return cmdWalk(argc, argv);
    if (cmd == "table")
        return cmdTable(argc, argv);
    if (cmd == "sweep")
        return cmdSweep(argc, argv);
    if (cmd == "reproduce")
        return cmdReproduce(argc, argv);
    if (cmd == "roofline")
        return cmdRoofline(argc, argv);
    if (cmd == "selftest")
        return cmdSelftest(argc, argv);
    if (cmd == "lint")
        return cmdLint(argc, argv);
    if (cmd == "audit")
        return cmdAudit(argc, argv);
    if (cmd == "serve")
        return cmdServe(argc, argv);
    if (cmd == "search")
        return cmdSearch(argc, argv);
    if (cmd == "bench")
        return cmdBench(argc, argv);
    if (cmd == "bench-serve")
        return cmdBenchServe(argc, argv);
    return -1;
}

/**
 * `lll profile [--out FILE] [--top N] <command> [args ...]`: run the
 * wrapped command under a root span, then fold the span tracker into a
 * wall-clock attribution tree printed to stderr (stdout stays the inner
 * command's, so `lll profile sweep --json -` still pipes clean JSON).
 * The process exit code is the inner command's.
 */
int
cmdProfile(int argc, char **argv)
{
    // profile's own flags come before the wrapped command; everything
    // from the first non-flag token on belongs to the inner command and
    // is handed over untouched (so its own `--out`/`--top` still work).
    std::string out;
    size_t top = 10;
    int i = 2;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            // Hand-rolled loop (flags stop at the wrapped command), so
            // register the flags on a scratch parser to reuse the one
            // shared help renderer.
            ArgParser help_ap(std::vector<std::string>{});
            (void)help_ap.stringFlag("--out",
                                     "write the profile envelope to "
                                     "FILE");
            (void)help_ap.intFlag("--top", 10,
                                  "attribution tree rows to print");
            std::fputs(
                help_ap
                    .helpText("profile [--out FILE] [--top N] "
                              "<command> [args ...]",
                              "Self-profile any subcommand under a "
                              "wall-clock span tree.")
                    .c_str(),
                stdout);
            return 0;
        }
        if (arg != "--out" && arg != "--top") {
            if (!arg.empty() && arg[0] == '-') {
                return failWith(Status::error(ErrorCode::InvalidArgument,
                                              "unknown flag '%s'",
                                              arg.c_str()));
            }
            break;
        }
        if (i + 1 >= argc) {
            return failWith(Status::error(ErrorCode::InvalidArgument,
                                          "%s needs an argument",
                                          arg.c_str()));
        }
        const std::string value = argv[++i];
        if (arg == "--out") {
            out = value;
            continue;
        }
        char *end = nullptr;
        const long n = std::strtol(value.c_str(), &end, 10);
        if (*end != '\0' || n < 1) {
            return failWith(Status::error(
                ErrorCode::InvalidArgument,
                "--top wants a positive integer, got '%s'",
                value.c_str()));
        }
        top = static_cast<size_t>(n);
    }
    if (i >= argc)
        return usage();
    const std::string inner = argv[i];
    if (inner == "profile" || inner == "--profile") {
        return failWith(Status::error(ErrorCode::InvalidArgument,
                                      "profile does not nest"));
    }

    // Re-seat argv so the inner command sees itself at argv[1].
    std::vector<char *> inner_argv;
    inner_argv.push_back(argv[0]);
    for (int j = i; j < argc; ++j)
        inner_argv.push_back(argv[j]);

    obs::SpanTracker::global().reset();
    obs::WallTimer wall;
    int inner_exit;
    {
        obs::ScopedSpan root(util::names::kCmdSpanPrefix + inner);
        inner_exit = runCommand(inner,
                                static_cast<int>(inner_argv.size()),
                                inner_argv.data());
    }
    if (inner_exit < 0) {
        return failWith(Status::error(ErrorCode::InvalidArgument,
                                      "unknown command '%s'",
                                      inner.c_str()));
    }
    const double wall_ns = wall.elapsedNs();

    obs::Profiler::Report report = obs::Profiler::build(
        obs::SpanTracker::global().stats(), wall_ns);
    std::fprintf(stderr, "profile: %s (exit %d)\n", inner.c_str(),
                 inner_exit);
    std::fputs(obs::Profiler::renderText(report, top).c_str(), stderr);

    if (!out.empty()) {
        std::string data;
        util::JsonWriter w(data);
        w.beginObject(Layout::Block)
            .member("profiled_command", inner)
            .member("inner_exit", inner_exit)
            .key("profile")
            .raw(obs::Profiler::renderJson(report, top))
            .end();
        Status s = writeEnvelope(out, "profile", Status::okStatus(),
                                 inner_exit, data, nullptr);
        if (!s.ok())
            return failWith(s);
    }
    return inner_exit;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        usageText(stdout);
        return 0;
    }
    // `lll --profile <cmd>` is an alias for `lll profile <cmd>`.
    if (cmd == "profile" || cmd == "--profile")
        return cmdProfile(argc, argv);
    const int code = runCommand(cmd, argc, argv);
    if (code >= 0)
        return code;
    std::fprintf(stderr, "lll: unknown command '%s'\n", cmd.c_str());
    return usage();
}
