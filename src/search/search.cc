#include "search/search.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "util/names.hh"

namespace lll::search
{

using util::ErrorCode;
using util::Status;

namespace
{

std::string
fmtFixed(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
pad(const std::string &s, size_t width)
{
    std::string out = s;
    while (out.size() < width)
        out += ' ';
    return out;
}

} // namespace

util::Result<SearchResult>
Searcher::run(const SearchSpec &spec)
{
    // Resolve the base platform and the workload.
    util::Result<core::ResolvedRequest> target = core::resolveRequest(
        spec, spec.hasBasePlatform ? &spec.basePlatform : nullptr);
    if (!target.ok())
        return target.status();
    const platforms::Platform &base = target->unit.platform;
    const workloads::Workload &workload = *target->workload;

    util::Result<std::vector<Candidate>> enumerated =
        enumerateSpace(spec, base, workload);
    if (!enumerated.ok())
        return enumerated.status();
    std::vector<Candidate> candidates = enumerated.take();

    SearchResult result;
    result.platform = base.name;
    result.workload = workload.name();
    result.optsLabel = spec.opts.label();
    result.bankWeight = spec.bankWeight;
    {
        std::vector<std::string> names;
        for (const Axis &axis : spec.axes)
            names.push_back(axis.name);
        std::sort(names.begin(), names.end());
        result.axisNames = std::move(names);
    }
    result.enumerated = candidates.size();
    result.rows.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        SearchRow &row = result.rows[i];
        row.index = i;
        row.label = candidates[i].label;
        row.cost = candidates[i].cost;
        row.ceilingGBs = candidates[i].ceilingGBs;
        if (!candidates[i].stage.ok()) {
            row.fate = CandidateFate::Infeasible;
            row.status = candidates[i].stage.status();
            ++result.prunedInfeasible;
        }
    }

    // Cost classes, cheapest first.  Within a class candidates keep
    // enumeration order; across classes the analytic prune compares
    // against *strictly* cheaper simulated performance only, so equal
    // cost can never prune equal cost and the result is independent
    // of intra-class completion order.
    std::map<double, std::vector<size_t>> classes;
    for (size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].stage.ok())
            classes[candidates[i].cost].push_back(i);
    }

    core::SweepRunner runner(params_);

    // Both ceiling terms (DESIGN.md §17.2) cap the *sustained* rate,
    // but a finite measurement window can overshoot them by a fraction
    // of a percent (requests in flight at the window edges are
    // attributed whole).  Pruning therefore demands this much headroom
    // above the ceiling before calling a candidate dominated, so a
    // config that could tie its ceiling is never retired by a lucky
    // window.
    constexpr double kCeilingSlack = 0.02;

    double best_perf = 0.0;
    bool best_any = false;
    for (const auto &[cost, members] : classes) {
        (void)cost;
        std::vector<size_t> to_run;
        for (size_t i : members) {
            if (!spec.disablePruning && best_any &&
                best_perf >=
                    candidates[i].ceilingGBs * (1.0 + kCeilingSlack)) {
                // A strictly cheaper config already achieved at least
                // everything this one's ceiling allows: dominated.
                result.rows[i].fate = CandidateFate::PrunedAnalytic;
                ++result.prunedAnalytic;
            } else {
                to_run.push_back(i);
            }
        }
        if (to_run.empty())
            continue;
        ++result.waves;
        std::vector<core::AdmittedStage> stages;
        stages.reserve(to_run.size());
        for (size_t i : to_run)
            stages.push_back(std::move(*candidates[i].stage));
        const std::vector<core::SweepRunner::StageOutcome> outcomes =
            runner.runAdmitted(stages);
        double class_best = 0.0;
        bool class_any = false;
        for (size_t u = 0; u < to_run.size(); ++u) {
            SearchRow &row = result.rows[to_run[u]];
            row.fate = CandidateFate::Simulated;
            ++result.simulated;
            const core::SweepRunner::StageOutcome &out = outcomes[u];
            result.cache += out.cache;
            row.status = out.status;
            if (!out.status.ok())
                continue;
            const core::Analysis &a = out.metrics.analysis;
            row.bwGBs = a.bwGBs;
            row.pctPeak = a.pctPeak;
            row.latencyNs = a.latencyNs;
            row.nAvg = a.nAvg;
            row.throughput = out.metrics.throughput;
            if (!class_any || row.bwGBs > class_best) {
                class_best = row.bwGBs;
                class_any = true;
            }
        }
        // Merge after the whole class so equal-cost members never see
        // each other's results.
        if (class_any && (!best_any || class_best > best_perf)) {
            best_perf = class_best;
            best_any = true;
        }
    }

    // Frontier over successful simulations only.
    std::vector<ParetoPoint> points;
    for (const SearchRow &row : result.rows) {
        if (row.fate == CandidateFate::Simulated && row.status.ok()) {
            points.push_back({row.label, row.cost, row.bwGBs,
                              row.index});
        }
    }
    for (const ParetoPoint &p : paretoFrontier(std::move(points))) {
        result.rows[p.index].onFrontier = true;
        result.frontier.push_back(p.index);
    }

    if (params_.registry) {
        obs::MetricRegistry &reg = *params_.registry;
        reg.counter(util::names::kSearchEnumeratedTotal)
            .increment(result.enumerated);
        reg.counter(util::names::kSearchPrunedAnalyticTotal)
            .increment(result.prunedAnalytic);
        reg.counter(util::names::kSearchPrunedInfeasibleTotal)
            .increment(result.prunedInfeasible);
        reg.counter(util::names::kSearchSimulatedTotal)
            .increment(result.simulated);
        reg.counter(util::names::kSearchWavesTotal)
            .increment(result.waves);
        reg.setGauge(util::names::kSearchFrontierSize,
                     static_cast<double>(result.frontier.size()));
    }
    return result;
}

void
writeSearchData(util::JsonWriter &w, const SearchResult &r,
                bool include_rows)
{
    w.beginObject()
        .member("platform", r.platform)
        .member("workload", r.workload)
        .member("opts", r.optsLabel)
        .key("axes")
        .beginArray();
    for (const std::string &axis : r.axisNames)
        w.value(axis);
    w.end()
        .member("bank_weight", r.bankWeight)
        .member("enumerated", r.enumerated)
        .member("pruned_analytic", r.prunedAnalytic)
        .member("pruned_infeasible", r.prunedInfeasible)
        .member("simulated", r.simulated)
        .member("waves", r.waves)
        .key("frontier")
        .beginArray();
    for (size_t index : r.frontier) {
        const SearchRow &row = r.rows[index];
        w.beginObject()
            .member("config", row.label)
            .member("cost", row.cost)
            .member("bw_gbs", row.bwGBs)
            .member("pct_peak", row.pctPeak)
            .member("latency_ns", row.latencyNs)
            .member("n_avg", row.nAvg)
            .member("ceiling_gbs", row.ceilingGBs)
            .end();
    }
    w.end();
    if (include_rows) {
        w.key("rows").beginArray();
        for (const SearchRow &row : r.rows) {
            w.beginObject()
                .member("config", row.label)
                .member("cost", row.cost)
                .member("ceiling_gbs", row.ceilingGBs)
                .member("fate", candidateFateName(row.fate))
                .key("status")
                .beginObject()
                .member("code", util::errorCodeName(row.status.code()))
                .member("message", row.status.message())
                .end()
                .member("bw_gbs", row.bwGBs)
                .member("n_avg", row.nAvg)
                .member("on_frontier", row.onFrontier)
                .end();
        }
        w.end();
    }
    w.end();
}

std::string
searchDataJson(const SearchResult &r, bool include_rows)
{
    std::string out;
    util::JsonWriter w(out);
    writeSearchData(w, r, include_rows);
    return out;
}

std::string
renderSearchText(const SearchResult &r, bool all_rows)
{
    std::ostringstream out;
    out << "search: " << r.workload << " on " << r.platform << " (opts "
        << r.optsLabel << ")\n";
    out << "candidates: " << r.enumerated << " enumerated = "
        << r.simulated << " simulated + " << r.prunedAnalytic
        << " pruned (analytic) + " << r.prunedInfeasible
        << " infeasible; " << r.waves << " waves\n";
    out << "cost model: L1 MSHRs + L2 MSHRs + "
        << fmtFixed(r.bankWeight, 2) << " x banks\n\n";

    auto emitRow = [&out](const SearchRow &row) {
        out << "  " << pad(fmtFixed(row.cost, 1), 9)
            << pad(fmtFixed(row.bwGBs, 2), 12)
            << pad(fmtFixed(row.pctPeak * 100.0, 1), 8)
            << pad(fmtFixed(row.latencyNs, 0), 9)
            << pad(fmtFixed(row.nAvg, 2), 8)
            << pad(fmtFixed(row.ceilingGBs, 2), 10) << row.label
            << "\n";
    };
    const std::string header =
        "  " + pad("cost", 9) + pad("BW GB/s", 12) + pad("%peak", 8) +
        pad("lat ns", 9) + pad("n_avg", 8) + pad("ceiling", 10) +
        "config\n";
    out << "Pareto frontier (" << r.frontier.size() << " of "
        << r.simulated << " simulated):\n" << header;
    for (size_t index : r.frontier)
        emitRow(r.rows[index]);
    if (all_rows) {
        out << "\nall candidates:\n" << header;
        for (const SearchRow &row : r.rows) {
            if (row.fate == CandidateFate::Simulated &&
                row.status.ok()) {
                emitRow(row);
                continue;
            }
            out << "  " << pad(fmtFixed(row.cost, 1), 9)
                << pad(std::string("[") +
                           candidateFateName(row.fate) + "]",
                       47)
                << row.label << "\n";
        }
    }
    return out.str();
}

} // namespace lll::search
