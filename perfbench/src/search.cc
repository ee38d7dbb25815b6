/**
 * @file
 * The search phase: `lll search isx skl --cores 6 --warmup-us 5
 * --measure-us 10 --axis l2_mshrs=8:32:*2 --axis banks=8:16:+4` through
 * search::Searcher::run, with no ResultCache and an empty profile
 * store, so every simulated candidate first characterises its own
 * latency profile.
 */

#include <filesystem>
#include <fstream>
#include <iterator>

#include "phases.hh"
#include "platforms/platform.hh"
#include "search/search.hh"
#include "workloads/workload.hh"
#include "xmem/xmem_harness.hh"

namespace fs = std::filesystem;

using namespace lll;

namespace perfbench
{

namespace
{

constexpr int kJobs = 2;
constexpr const char *kFrontierFile = "search_frontier.json";

search::SearchSpec
makeSpec()
{
    search::SearchSpec spec;
    spec.platformName = "skl";
    spec.workloadName = "isx";
    spec.cores = 6;
    spec.warmupUs = 5.0;
    spec.measureUs = 10.0;
    for (const char *axis : {"l2_mshrs=8:32:*2", "banks=8:16:+4"})
        spec.axes.push_back(search::parseAxis(axis).take());
    return spec;
}

std::string
storeDir(const RunConfig &cfg, const char *tag)
{
    return cfg.workDir + "/profiles-search-" + tag;
}

bool
emptyStore(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    return !ec;
}

size_t
countFiles(const std::string &dir)
{
    size_t n = 0;
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::recursive_directory_iterator(dir, ec))
        n += e.is_regular_file() ? 1 : 0;
    return n;
}

util::Result<search::SearchResult>
runSearcher(const search::SearchSpec &spec)
{
    search::Searcher::Params params;
    params.jobs = kJobs;
    return search::Searcher(params).run(spec);
}

void
checkResult(const RunConfig &cfg, const util::Result<search::SearchResult> &r,
            const char *what, Books &books)
{
    books.check(r.ok(), std::string(what) + ": " + r.status().toString());
    if (!r.ok())
        return;
    books.check(r->enumerated ==
                    r->simulated + r->prunedAnalytic + r->prunedInfeasible,
                std::string(what) + ": candidate accounting");
    const std::string got = search::searchDataJson(*r, false) + "\n";
    // Left beside the reference, which a change that alters simulated
    // numbers replaces with it.
    std::ofstream kept(cfg.observedDir + "/" + kFrontierFile);
    kept << got;
    kept.close();
    books.check(!kept.fail(), std::string(what) + ": write observed frontier");
    std::ifstream in(cfg.root + "/perfbench/ref/" + kFrontierFile);
    const std::string want(std::istreambuf_iterator<char>(in), {});
    books.check(got == want, std::string(what) + ": frontier differs from " +
                                 "the stored reference");
}

/** The traced pass: characterise each candidate the cold search
 *  simulated, one span per XMemHarness call, then rerun the search
 *  with those profiles present. */
void
tracedPass(const RunConfig &cfg, const search::SearchSpec &spec,
           const search::SearchResult &cold, double coldWallS,
           Tracer *tracer, PhaseOut &out)
{
    const std::string dir = storeDir(cfg, "traced");
    out.books.check(emptyStore(dir), "search: traced store");
    useProfileStore(dir);
    util::Result<platforms::Platform> base =
        platforms::findPlatform(spec.platformName);
    util::Result<workloads::WorkloadPtr> w =
        workloads::findWorkload(spec.workloadName);
    util::Result<std::vector<search::Candidate>> cands =
        search::enumerateSpace(spec, *base, **w);
    out.books.check(cands.ok() && cands->size() == cold.rows.size(),
                    "search: enumerate");
    if (!out.books.correct)
        return;

    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < cold.rows.size(); ++i) {
        if (cold.rows[i].fate != search::CandidateFate::Simulated)
            continue;
        const platforms::Platform &p = (*cands)[i].platform;
        Tracer::Scope s(tracer, "xmem.characterize", tracer->newOp());
        util::Result<xmem::LatencyProfile> prof =
            xmem::XMemHarness().measureCachedChecked(
                p, xmem::defaultProfilePath(p));
        out.books.check(prof.ok(), "search: characterise " + p.name);
    }
    util::Result<search::SearchResult> warm = [&] {
        Tracer::Scope s(tracer, "search.run", tracer->newOp());
        return runSearcher(spec);
    }();
    const double wallS = secondsSince(t0);
    // Profiles reloaded from disk carry rounded latencies, so the warm
    // search is held to the cold one's frontier membership, not bytes.
    out.books.check(warm.ok() && warm->frontier == cold.frontier,
                    "search (warm): frontier differs from the cold one");

    const std::vector<double> xm = tracer->durationsNs("xmem.characterize");
    Metrics &m = out.layer;
    m.set("xmem.characterize_s", mean(xm) * 1e-9, "s");
    m.set("search.warm_s", tracer->durationsNs("search.run").at(0) * 1e-9,
          "s");
    m.set("trace_overhead_frac.search", (wallS - coldWallS) / coldWallS,
          "fraction");
    double selfSum = 0;
    for (const auto &[layer, s] : tracer->selfSeconds())
        selfSum += s;
    m.set("trace_coverage.search", selfSum / wallS, "fraction");
}

} // namespace

void
setupSearch(const RunConfig &cfg, Books &books)
{
    books.check(emptyStore(storeDir(cfg, "cold")), "search: empty store");
}

void
runSearch(const RunConfig &cfg, Tracer *tracer, PhaseOut &out)
{
    const std::string dir = storeDir(cfg, "cold");
    useProfileStore(dir);
    const search::SearchSpec spec = makeSpec();
    const Clock::time_point t0 = Clock::now();
    util::Result<search::SearchResult> r = runSearcher(spec);
    const double wallS = secondsSince(t0);
    checkResult(cfg, r, "search", out.books);
    if (!r.ok())
        return;
    out.e2e.set("search_wall_s", wallS, "s");
    if (!tracer)
        return;

    Metrics &m = out.layer;
    m.set("xmem.profiles_measured", static_cast<double>(countFiles(dir)),
          "count");
    m.set("search.simulated", static_cast<double>(r->simulated), "count");
    m.set("search.pruned_analytic", static_cast<double>(r->prunedAnalytic),
          "count");
    m.set("search.prune_ratio",
          static_cast<double>(r->prunedAnalytic) / r->enumerated,
          "fraction");
    tracedPass(cfg, spec, *r, wallS, tracer, out);
}

} // namespace perfbench
