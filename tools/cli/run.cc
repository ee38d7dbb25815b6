/**
 * @file
 * The commands that run one workload variant: analyze (the paper's
 * method on one run), trace (telemetry and the request tracer) and walk
 * (the recipe loop to convergence).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli.hh"
#include "core/recipe.hh"
#include "core/tma.hh"
#include "obs/export.hh"
#include "obs/span.hh"
#include "service/service.hh"
#include "sim/system.hh"
#include "sim/tracer.hh"

namespace lll::cli
{

namespace
{

/** analyze/trace: one variant and its exports. */
struct VariantRequest
{
    std::string json;
    std::string metrics; //!< sampled time series as CSV
    int cores = 0;       //!< 0 = all of the platform's cores
    Variant variant;
};

template <class V, util::RecordOf<VariantRequest> R>
void
visitFields(V &v, R &r)
{
    v("json", r.json, kFlag);
    v("metrics", r.metrics, kFlag);
    v("cores", r.cores, kCount);
}

Status
decodeOperands(util::ArgParser &ap, VariantRequest &r, const char *command)
{
    return decodeVariant(ap, command, r.variant, OptOperands::Take);
}

/** @p registry's sampled series as CSV at @p r's `--metrics` path. */
Status
writeMetrics(const VariantRequest &r, const obs::MetricRegistry &registry)
{
    if (r.metrics.empty() ||
        obs::writeExport(r.metrics, obs::exportCsv(registry)))
        return Status::okStatus();
    return Status::error(ErrorCode::IoError, "cannot write '%s'",
                         r.metrics.c_str());
}

/** @p unit through a one-unit runStages batch: its metrics, or the
 *  unit's status. */
util::Result<core::StageMetrics>
runStage(const core::SweepRunner::Params &params,
         const core::SweepRunner::StageUnit &unit)
{
    core::SweepRunner::StageOutcome out =
        std::move(core::SweepRunner(params).runStages({unit}).front());
    if (!out.status.ok())
        return out.status;
    return std::move(out.metrics);
}

util::Result<Outcome>
runAnalyze(const VariantRequest &r, const Context &ctx)
{
    const Variant &va = r.variant;
    core::SweepRunner::Params sp;
    if (!r.json.empty() || !r.metrics.empty())
        sp.registry = &ctx.registry;
    core::SweepRunner::StageUnit unit{va.platform, va.workload.get(),
                                      va.opts};
    unit.coresUsed = r.cores;
    util::Result<core::StageMetrics> m = runStage(sp, unit);
    if (!m.ok())
        return m.status();

    FILE *rep = ctx.report;
    const core::Analysis &a = m->analysis;
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
    const core::TmaReport tma = core::Tma(va.platform).analyze(m->run);
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
    for (const core::Recommendation &rec : d.recommendations) {
        std::fprintf(rep, "    [%s] %-22s %s\n",
                     rec.recommended ? "TRY " : "skip",
                     workloads::optName(rec.opt), rec.rationale.c_str());
    }

    LLL_RETURN_IF_ERROR(writeMetrics(r, ctx.registry));
    Outcome out;
    out.data = service::stageDataJson(*m, va.platform.name,
                                      va.workload->name(), va.opts.label());
    out.telemetry = true;
    return out;
}

util::Result<Outcome>
runTrace(const VariantRequest &r, const Context &ctx)
{
    const workloads::WorkloadPtr &w = r.variant.workload;
    const platforms::Platform &p = r.variant.platform;
    const workloads::OptSet &opts = r.variant.opts;

    sim::RunResult run;
    sim::RequestTracer tracer;
    {
        obs::ScopedSpan span("trace[" + w->name() + "/" + opts.label() +
                             "]");
        sim::KernelSpec spec = w->spec(p, opts);
        util::Result<sim::SystemParams> sp = p.trySysParams(
            r.cores > 0 ? r.cores : p.totalCores, opts.smtWays());
        if (!sp.ok())
            return sp.status();
        sim::System sys(*sp, spec);
        sys.mem().setTracer(&tracer);
        sys.attachObservability(ctx.registry);
        util::Result<sim::RunResult> res =
            sys.runChecked(w->warmupUs(), w->measureUs());
        if (!res.ok())
            return res.status();
        run = res.take();
    }

    FILE *rep = ctx.report;
    std::fprintf(rep, "%s [%s] on %s: %.1f GB/s over %.0f us\n",
                 w->routine().c_str(), opts.label().c_str(),
                 p.name.c_str(), run.totalGBs, w->measureUs());
    std::fprintf(rep, "  telemetry: %llu snapshots of %zu time series\n",
                 static_cast<unsigned long long>(ctx.registry.snapshots()),
                 ctx.registry.allSeries().size());
    std::fprintf(rep,
                 "  trace window: %zu of %llu memory requests, locality "
                 "%.2f\n",
                 tracer.size(),
                 static_cast<unsigned long long>(tracer.total()),
                 tracer.localityScore());
    if (r.json.empty() && r.metrics.empty())
        std::fprintf(rep, "  (use --json FILE / --metrics FILE to "
                          "export)\n");

    LLL_RETURN_IF_ERROR(writeMetrics(r, ctx.registry));
    Outcome out;
    out.data = tracer.toJson();
    out.telemetry = true;
    return out;
}

struct WalkRequest
{
    Variant variant;
};

Status
decodeOperands(util::ArgParser &ap, WalkRequest &r, const char *command)
{
    return decodeVariant(ap, command, r.variant, OptOperands::Refuse);
}

util::Result<Outcome>
runWalk(const WalkRequest &r, const Context &ctx)
{
    const platforms::Platform &p = r.variant.platform;
    core::Recipe recipe(p);
    // One unit at a time: each step starts from the candidate the last
    // one kept, whose metrics it carries, so no state runs twice.
    core::SweepRunner::StageUnit unit{p, r.variant.workload.get(), {}};
    workloads::OptSet state;
    util::Result<core::StageMetrics> cur = runStage({}, unit);
    if (!cur.ok())
        return cur.status();
    const double base = cur->throughput;
    for (int step = 0; step < 8; ++step) {
        const core::StageMetrics &m = *cur;
        core::RecipeDecision d = recipe.advise(m.analysis, state);
        std::fprintf(ctx.report,
                     "[%s] n_avg %.2f/%u, BW %.0f%%, cum %.2fx — %s\n",
                     state.label().c_str(), m.analysis.nAvg,
                     m.analysis.limitingMshrs, m.analysis.pctPeak * 100.0,
                     m.throughput / base, d.summary.c_str());
        bool moved = false;
        for (workloads::Opt opt : d.recommendedOpts()) {
            unit.opts = state.with(opt);
            util::Result<core::StageMetrics> next = runStage({}, unit);
            if (!next.ok())
                return next.status();
            double s = next->throughput / m.throughput;
            std::fprintf(ctx.report, "  %s -> %.2fx\n",
                         workloads::optName(opt), s);
            if (s >= 1.02) {
                state = state.with(opt);
                cur = std::move(next);
                moved = true;
                break;
            }
        }
        if (!moved || d.stop)
            break;
    }
    std::fprintf(ctx.report, "final: [%s] %.2fx\n", state.label().c_str(),
                 cur->throughput / base);
    return Outcome{};
}

} // namespace

const Runner cmdAnalyze = runner<runAnalyze>;
const Runner cmdTrace = runner<runTrace>;
const Runner cmdWalk = runner<runWalk>;

} // namespace lll::cli
