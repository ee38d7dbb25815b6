/**
 * @file
 * The batched run service behind `lll serve` (DESIGN.md §12).
 *
 * A batch is JSON-lines: one versioned RunRequest per line, answered by
 * one RunResponse line in the *same order*, each carrying its own
 * util::Status — a malformed or infeasible request fails alone, never
 * the batch.  Before anything simulates, the service coalesces
 * requests that resolve to the same ResultCache stage key, shards the
 * distinct units onto core::SweepRunner, and fans every response out
 * from the shared outcome; with the process-wide ResultCache engaged a
 * warm batch is served entirely from memo.
 *
 * Request schema.  The service speaks two versions; a response echoes
 * the version of the request it answers, so v1 clients on a v2 server
 * see byte-identical lines.
 *
 * schema_version 1 — exactly one of "workload" / "spec" must be
 * present:
 *
 *   {"schema_version": 1, "id": "r1", "platform": "bdx",
 *    "workload": "isx", "opts": ["vect", "2-ht"], "cores": 4,
 *    "seed": 7, "warmup_us": 15.0, "measure_us": 40.0}
 *
 *   {"schema_version": 1, "platform": "bdx", "random_dominated": true,
 *    "spec": {"name": "mykernel", "window": 12, "streams": [
 *      {"kind": "random", "footprint_lines": 4000000}]}}
 *
 * schema_version 2 adds a "kind" discriminator.  kind "run" (the
 * default) is the v1 request unchanged; kind "search" carries a
 * design-space spec (DESIGN.md §17) and answers with the Pareto
 * frontier instead of one stage's metrics:
 *
 *   {"schema_version": 2, "kind": "search", "id": "s1",
 *    "platform": "skl", "workload": "isx", "cores": 6,
 *    "axes": ["l2_mshrs=8:64:*2", "banks=4:20:+4"],
 *    "points": ["l2_mshrs=48,banks=10"], "bank_weight": 0.5,
 *    "max_candidates": 4096, "no_prune": false}
 *
 * An unknown v2 kind fails that request alone (per-request
 * invalid-argument status), never the batch.
 *
 * Response lines reuse the CLI's JSON envelope status shape:
 *
 *   {"schema_version": 1, "id": "r1",
 *    "status": {"code": "ok", "exit": 0, "message": ""},
 *    "data": {"platform": ..., "workload": ..., "opts": ...,
 *             "throughput": ..., "bw_gbs": ..., "n_avg": ...}}
 *
 * A search response's "data" is search::searchDataJson — accounting
 * plus the frontier rows.  Lines that fail before a version is known
 * (malformed JSON, missing schema_version) are answered with the v1
 * envelope, which every client must accept.
 */

#ifndef LLL_SERVICE_SERVICE_HH
#define LLL_SERVICE_SERVICE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "obs/registry.hh"
#include "search/search.hh"
#include "sim/kernel_spec.hh"
#include "util/json.hh"
#include "util/status.hh"
#include "workloads/optimization.hh"

namespace lll::service
{

/** Newest request/response line schema this build speaks.  Every
 *  version down to 1 stays accepted; responses echo the request's
 *  version (the serve byte-compat contract). */
constexpr int kServiceSchemaVersion = 2;

/** The original run-only schema (no "kind" field). */
constexpr int kServiceSchemaVersionV1 = 1;

/**
 * Resource bounds on one request line.  A request is a small, shallow
 * object (the deepest legitimate path is request > spec > streams >
 * stream, four levels), so a deeply nested or multi-megabyte line is
 * hostile by construction and fails as InvalidArgument — per request,
 * before the parser recurses into it.  The socket listener enforces
 * kMaxRequestBytes again at the framing layer so an oversized line
 * never even reaches the parser.
 */
constexpr size_t kMaxRequestBytes = 1u << 20;
constexpr int kMaxRequestDepth = 16;

/** The service's JSON parse limits (see kMaxRequestBytes). */
util::JsonLimits requestJsonLimits();

/**
 * One normalized request.  Exactly one of workloadName / spec is set
 * (hasSpec discriminates).  isSearch (v2 kind "search") carries the
 * fully-resolved design-space spec; the shared fields (platform,
 * workload/spec, opts, cores, seed, windows) are mirrored into it at
 * parse time so the searcher sees one coherent object.
 */
struct RunRequest
{
    int schemaVersion = kServiceSchemaVersionV1; //!< echoed back
    std::string id;           //!< echoes back; defaults to "#<line>"
    std::string platformName;
    std::string workloadName; //!< empty for inline-spec requests
    bool hasSpec = false;
    sim::KernelSpec spec;
    bool randomDominated = false; //!< inline-spec analyzer class
    workloads::OptSet opts;
    int cores = 0;      //!< 0 = all of the platform's cores
    uint64_t seed = 7;
    double warmupUs = 0.0;  //!< 0 = the workload's default window
    double measureUs = 0.0; //!< 0 = the workload's default window

    bool isSearch = false;    //!< v2 kind "search"
    search::SearchSpec search; //!< meaningful only when isSearch
};

/**
 * Parse one JSON request line.  @p line_no (1-based) supplies the
 * default id and appears in error context.
 */
[[nodiscard]] util::Result<RunRequest> parseRunRequest(const std::string &line,
                                         size_t line_no);

/**
 * Host wall time one request spent in each service stage.  All fields
 * are nanoseconds; queue-wait and simulate come from the coalesced
 * unit the request resolved to (coalesced requests share them), and
 * total is the sum of the stages, so queue_wait <= total always.
 */
struct StageTiming
{
    double parseNs = 0.0;     //!< JSON line -> RunRequest
    double coalesceNs = 0.0;  //!< name resolution + stage-key dedup
    double queueWaitNs = 0.0; //!< fan-out start -> worker pickup
    double simulateNs = 0.0;  //!< the unit's simulation wall time
    double respondNs = 0.0;   //!< outcome -> RunResponse
    double totalNs = 0.0;     //!< sum of the above

    double sum() const
    {
        return parseNs + coalesceNs + queueWaitNs + simulateNs +
               respondNs;
    }
};

/** One response line: per-request status plus (on success) either the
 *  stage's analysis payload or, for search requests, the frontier. */
struct RunResponse
{
    int schemaVersion = kServiceSchemaVersionV1; //!< request's version
    std::string id;
    util::Status status;
    core::StageMetrics metrics; //!< meaningful only when status.ok()
    std::string platform;
    std::string workload;
    std::string optsLabel;
    StageTiming timing; //!< always populated by serveLines()

    bool isSearch = false;       //!< response to a kind:"search"
    search::SearchResult search; //!< meaningful when isSearch && ok
};

/**
 * Serialize @p r as one JSON line (no trailing newline).
 * @p include_timing adds the per-request "timing" object; it defaults
 * off because timing is wall-clock — cold and warm reruns must stay
 * byte-identical on the default path (the serve contract).
 */
std::string renderRunResponse(const RunResponse &r,
                              bool include_timing = false);

/**
 * Just the "data" object of a successful response — the analysis
 * payload for one stage.  Shared with `lll analyze --json` so the CLI
 * envelope and the service speak the same schema.
 */
std::string stageDataJson(const core::StageMetrics &m,
                          const std::string &platform,
                          const std::string &workload,
                          const std::string &opts_label);

/**
 * The batched front-end.  Construct once, serve many batches; the
 * ResultCache (and its capacity policy) persists across batches.
 */
class RunService
{
  public:
    struct Params
    {
        /** Threads for the distinct-unit fan-out, caller included. */
        int jobs = 1;

        /** Stage memo table; nullptr runs every unit uncached (no
         *  coalescing is lost — duplicates still simulate once). */
        core::ResultCache *cache = nullptr;

        /**
         * When set, receives the service counters
         * (service.requests_total, service.requests_failed_total,
         * service.units_total, service.coalesced_requests_total,
         * service.cache_{hits,misses,evictions,spill_evictions}_total,
         * gauge service.batch_size), per-request stage-latency
         * histograms (service.latency.{parse,coalesce,queue_wait,
         * simulate,respond,total}_ns), the sweep worker-utilization
         * gauges and the merged per-unit telemetry.
         */
        obs::MetricRegistry *registry = nullptr;
    };

    explicit RunService(Params params) : params_(params) {}

    /**
     * Serve one batch: parse every line (blank lines are skipped),
     * coalesce, run, and return responses in request order.  Never
     * fails as a whole — per-request errors ride in the responses.
     * Runs under a `serve.batch` span with parse/coalesce/run/respond
     * phases nested inside.
     *
     * @p first_line_no numbers the first entry of @p lines — default
     * ids and error context count from it, so the socket listener can
     * serve one line at a time while keeping per-connection request
     * numbering ("#7" is the connection's 7th request, not "#1" over
     * and over).
     */
    std::vector<RunResponse>
    serveLines(const std::vector<std::string> &lines,
               size_t first_line_no = 1);

  private:
    Params params_;
};

} // namespace lll::service

#endif // LLL_SERVICE_SERVICE_HH
