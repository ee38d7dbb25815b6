/**
 * @file
 * The commands that fan stages out through the parallel SweepRunner:
 * table, sweep and reproduce (the paper's tables: plan, one runStages()
 * batch, assemble), and search (the bounds-pruned design-space
 * autotuner, DESIGN.md §17).  Their output is byte-identical for any
 * `--jobs N` and across warm `--cache-dir` reruns.
 */

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "cli.hh"
#include "search/axes.hh"
#include "search/search.hh"
#include "util/table.hh"

namespace lll::cli
{

namespace
{

/** The SweepRunner knobs: `--jobs N` plus the cache flags. */
struct RunnerFlags
{
    int jobs = 1;
    CacheFlags cache;

    /**
     * The runner's parameters.  The global ResultCache is always
     * engaged — a sweep revisiting a stage must never pay for it twice
     * — and `--cache-dir` spills it so the next process is warm too.
     */
    util::Result<core::SweepRunner::Params> params() const
    {
        core::SweepRunner::Params sp;
        sp.cache = &core::ResultCache::global();
        sp.jobs = jobs;
        LLL_RETURN_IF_ERROR(cache.applyTo(*sp.cache));
        return sp;
    }
};

template <class V, util::RecordOf<RunnerFlags> R>
void
visitFields(V &v, R &r)
{
    v("jobs", r.jobs, kCount);
    visitFields(v, r.cache);
}

/** The paper tables of @p wls on every platform.  Every table needs
 *  its stages admitted and its platform's profile, so a refused stage
 *  or an unusable profile refuses the plan before any stage
 *  simulates. */
util::Result<std::vector<core::PaperTable>>
runTables(const RunnerFlags &flags,
          const std::vector<workloads::WorkloadPtr> &wls,
          obs::MetricRegistry *registry = nullptr)
{
    util::Result<core::SweepRunner::Params> sp = flags.params();
    if (!sp.ok())
        return sp.status();
    sp->registry = registry;
    const core::PaperPlan plan =
        core::planPaperTables(platforms::allPlatforms(), wls);
    std::vector<core::AdmittedStage> stages;
    for (const core::StageUnit &u : plan.stages) {
        util::Result<core::AdmittedStage> a = core::admitStage(u);
        if (!a.ok())
            return a.status().withContext("sweep");
        stages.push_back(a.take());
    }
    core::SweepRunner runner(*sp);
    const core::SweepRunner::Profiles profiles = runner.loadProfiles(stages);
    for (const core::AdmittedStage &s : stages) {
        const Status &profile = profiles.at(s.platform.name).status();
        if (!profile.ok())
            return profile.withContext("sweep");
    }
    return core::assemblePaperTables(plan,
                                     runner.runAdmitted(stages, profiles));
}

/** One table's rows as cells: Proc, Source, BW_obs, lat_avg, n_avg,
 *  "Opt: measured" and the paper's speedup. */
std::vector<std::vector<std::string>>
tableRowCells(const core::PaperTable &u)
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
 * Print one paper table (Tables IV-IX) from one workload's tables: the
 * rows of every platform with the recipe's verdict on each tried
 * optimization, then how often that verdict matched the outcome
 * (recommended and helped, or not recommended and did not help) --
 * the paper's core claim.
 */
void
printPaperTable(std::span<const core::PaperTable> tables, FILE *report)
{
    Table t({"Proc", "Source", "BW_obs (GB/s)", "lat_avg (ns)", "n_avg",
             "Opt: measured", "paper", "recipe"});
    int agree = 0, total = 0;
    for (const core::PaperTable &u : tables) {
        std::vector<std::vector<std::string>> cells = tableRowCells(u);
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
    std::fputs(t.render().c_str(), report);
    std::fprintf(report,
                 "recipe/outcome agreement: %d of %d tried "
                 "optimizations (recommended<->helped)\n",
                 agree, total);
}

struct TableRequest
{
    RunnerFlags runner;
    std::vector<workloads::WorkloadPtr> workloads; //!< the one operand
};

template <class V, util::RecordOf<TableRequest> R>
void
visitFields(V &v, R &r)
{
    visitFields(v, r.runner);
}

Status
decodeOperands(util::ArgParser &ap, TableRequest &r, const char *command)
{
    std::string name;
    LLL_RETURN_IF_ERROR(takeOperand(ap, command, "a workload", name));
    util::Result<workloads::WorkloadPtr> w = workloads::findWorkload(name);
    if (!w.ok())
        return w.status();
    r.workloads.push_back(w.take());
    return Status::okStatus();
}

util::Result<Outcome>
runTable(const TableRequest &r, const Context &ctx)
{
    util::Result<std::vector<core::PaperTable>> res =
        runTables(r.runner, r.workloads);
    if (!res.ok())
        return res.status();
    printPaperTable(*res, ctx.report);
    return Outcome{};
}

struct SweepRequest
{
    std::string json;
    RunnerFlags runner;
};

template <class V, util::RecordOf<SweepRequest> R>
void
visitFields(V &v, R &r)
{
    v("json", r.json, kFlag);
    visitFields(v, r.runner);
}

util::Result<Outcome>
runSweep(const SweepRequest &r, const Context &ctx)
{
    util::Result<std::vector<core::PaperTable>> res =
        runTables(r.runner, workloads::allWorkloadsAndExtensions(),
                  r.json.empty() ? nullptr : &ctx.registry);
    if (!res.ok())
        return res.status();

    Table t({"Workload", "Proc", "Source", "BW_obs (GB/s)",
             "lat_avg (ns)", "n_avg", "Opt: measured", "paper"});
    size_t rows = 0;
    std::string last_workload;
    for (const core::PaperTable &u : *res) {
        if (!last_workload.empty() && u.workload != last_workload)
            t.addSeparator();
        last_workload = u.workload;
        for (std::vector<std::string> &cells : tableRowCells(u)) {
            cells.insert(cells.begin(), u.workload);
            t.addRow(std::move(cells));
        }
        rows += u.rows.size();
    }
    std::fputs(t.render().c_str(), ctx.report);
    // Note: no worker count here — `sweep --jobs 4` must stay
    // byte-identical to `--jobs 1`.
    const core::ResultCache::Stats cs = core::ResultCache::global().stats();
    std::fprintf(ctx.report,
                 "sweep: %zu units, %zu rows — cache: %llu hits, %llu "
                 "misses, %llu disk loads, %llu spills\n",
                 res->size(), rows,
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.diskLoads),
                 static_cast<unsigned long long>(cs.spills));

    Outcome out;
    util::JsonWriter w(out.data);
    w.beginObject(Layout::Block).key("units").beginArray(Layout::Block);
    for (const core::PaperTable &u : *res) {
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
    out.telemetry = true;
    return out;
}

util::Result<Outcome>
runReproduce(const RunnerFlags &r, const Context &ctx)
{
    const std::vector<workloads::WorkloadPtr> wls = workloads::allWorkloads();
    util::Result<std::vector<core::PaperTable>> res = runTables(r, wls);
    if (!res.ok())
        return res.status();

    // The plan is workload-major, so each workload's tables are a
    // contiguous run of the result vector.
    const std::span<const core::PaperTable> all(*res);
    size_t i = 0;
    for (const workloads::WorkloadPtr &w : wls) {
        std::fprintf(ctx.report, "== %s: %s ==\n", w->name().c_str(),
                     w->routine().c_str());
        const size_t first = i;
        while (i < all.size() && all[i].workload == w->name())
            ++i;
        printPaperTable(all.subspan(first, i - first), ctx.report);
        std::fputs("\n", ctx.report);
    }
    return Outcome{};
}

/** `lll search`: the space and knobs (SearchSpec's lists) plus the
 *  runner and report flags. */
struct SearchRequest
{
    search::SearchSpec spec;
    bool listAxes = false;
    std::string json;
    RunnerFlags runner;
    bool all = false;
};

template <class V, util::RecordOf<SearchRequest> R>
void
visitFields(V &v, R &r)
{
    visitFields(v, r.spec);
    v("list_axes", r.listAxes, {.help = "list the known axes and exit"});
    v("json", r.json,
      {.help = "write the envelope report to FILE (\"-\" = stdout)"});
    visitFields(v, static_cast<core::StageRequest &>(r.spec));
    visitFields(v, r.runner);
    v("all", r.all,
      {.help = "print every candidate row, not just the frontier"});
}

Status
decodeOperands(util::ArgParser &ap, SearchRequest &r, const char *command)
{
    // --list-axes answers without a space; operands around it are
    // ignored.
    if (r.listAxes) {
        ap.consumePositional(ap.rest().size());
        return Status::okStatus();
    }
    Variant va;
    LLL_RETURN_IF_ERROR(decodeVariant(ap, command, va, OptOperands::Take));
    r.spec.workloadName = va.workload->name();
    r.spec.platformName = va.platform.name;
    r.spec.opts = va.opts;
    if (r.spec.axes.empty() && r.spec.points.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "search needs at least one --axis (or "
                             "--point); see --list-axes");
    }
    return Status::okStatus();
}

util::Result<Outcome>
runSearch(const SearchRequest &r, const Context &ctx)
{
    if (r.listAxes) {
        Table t({"axis", "values"});
        for (const search::AxisDef &def : search::knownAxes())
            t.addRow({def.name, def.help});
        std::fputs(t.render().c_str(), ctx.report);
        return Outcome{};
    }

    util::Result<core::SweepRunner::Params> sp = r.runner.params();
    if (!sp.ok())
        return sp.status();
    sp->registry = &ctx.registry;
    util::Result<search::SearchResult> result =
        search::Searcher(*sp).run(r.spec);
    if (!result.ok())
        return result.status();

    std::fputs(search::renderSearchText(*result, r.all).c_str(),
               ctx.report);
    Outcome out;
    out.data = search::searchDataJson(*result, true);
    out.telemetry = true;
    return out;
}

} // namespace

const Runner cmdTable = runner<runTable>;
const Runner cmdSweep = runner<runSweep>;
const Runner cmdReproduce = runner<runReproduce>;
const Runner cmdSearch = runner<runSearch>;

} // namespace lll::cli
