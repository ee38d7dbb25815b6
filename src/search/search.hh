/**
 * @file
 * The bounds-pruned design-space autotuner behind `lll search`
 * (DESIGN.md §17).
 *
 * Searcher::run() enumerates a SearchSpec, prices every candidate with
 * the MSHR+bank cost model, derives each one's analytic Little's-law
 * bandwidth ceiling (core::deriveBounds at idle latency — a proven
 * upper bound on anything the candidate can simulate to), and then
 * simulates in cost-ascending waves through SweepRunner::runStages:
 * before a wave runs, any member whose ceiling is already met by a
 * strictly cheaper simulated point is pruned — it is provably
 * dominated (the cheaper point is no worse on perf and strictly
 * better on cost), so the frontier cannot contain it.
 *
 * Determinism: waves are ordered by cost class, prune decisions read
 * only completed waves (merged after join), and runStages itself is
 * jobs-invariant — so the whole result, frontier included, is
 * byte-identical for any --jobs N and across warm cache reruns.
 */

#ifndef LLL_SEARCH_SEARCH_HH
#define LLL_SEARCH_SEARCH_HH

#include <string>
#include <vector>

#include "core/sweep.hh"
#include "obs/registry.hh"
#include "search/pareto.hh"
#include "search/space.hh"
#include "util/status.hh"

namespace lll::search
{

/** One enumerated candidate's final state, in enumeration order. */
struct SearchRow
{
    size_t index = 0;
    std::string label;
    double cost = 0.0;
    double ceilingGBs = 0.0;
    CandidateFate fate = CandidateFate::Infeasible;
    /** ok for pruned/successful rows; the failure for infeasible
     *  candidates and failed simulations. */
    util::Status status;

    // Simulated outcomes (fate == Simulated and status ok).
    double bwGBs = 0.0;
    double pctPeak = 0.0;
    double latencyNs = 0.0;
    double nAvg = 0.0;
    double throughput = 0.0;
    bool onFrontier = false;
};

/** The whole search: accounting + rows + the frontier. */
struct SearchResult
{
    std::string platform; //!< base platform name
    std::string workload;
    std::string optsLabel;
    std::vector<std::string> axisNames; //!< canonical (sorted)
    double bankWeight = 0.5;

    /** enumerated == prunedAnalytic + prunedInfeasible + simulated. */
    size_t enumerated = 0;
    size_t prunedAnalytic = 0;
    size_t prunedInfeasible = 0;
    size_t simulated = 0;
    size_t waves = 0; //!< cost classes that reached the runner

    std::vector<SearchRow> rows;  //!< enumeration order
    std::vector<size_t> frontier; //!< row indices, cost-ascending
};

/**
 * Runs searches.  Construct once per jobs/cache/registry setup; run()
 * many specs (the service does exactly that).
 */
class Searcher
{
  public:
    struct Params
    {
        /** Threads within one wave (runStages fan-out), caller included. */
        int jobs = 1;

        /** Stage memo table; candidates key by their encoded name, so
         *  a warm cache serves repeated neighborhoods from memo. */
        core::ResultCache *cache = nullptr;

        /** Receives search.{enumerated,pruned_analytic,
         *  pruned_infeasible,simulated,waves}_total counters, the
         *  search.frontier_size gauge and the per-wave sweep
         *  telemetry. */
        obs::MetricRegistry *registry = nullptr;
    };

    explicit Searcher(Params params) : params_(params) {}

    /**
     * Enumerate, prune, simulate, extract the frontier.  Fails only on
     * structural errors (unknown platform/workload, malformed space);
     * per-candidate failures ride in the rows.
     */
    [[nodiscard]] util::Result<SearchResult> run(const SearchSpec &spec);

  private:
    Params params_;
};

/**
 * The "data" object for JSON output — deterministic (no wall-clock
 * values), shared by `lll search --json` and the v2 service response
 * so both surfaces speak one schema.  @p include_rows adds the full
 * per-candidate row array after the frontier.
 */
std::string searchDataJson(const SearchResult &r, bool include_rows);

/** Human-readable report: accounting line + frontier table
 *  (@p all_rows appends every simulated row). */
std::string renderSearchText(const SearchResult &r, bool all_rows);

} // namespace lll::search

#endif // LLL_SEARCH_SEARCH_HH
