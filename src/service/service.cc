#include "service/service.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <string_view>

#include "core/analyzer.hh"
#include "obs/span.hh"
#include "obs/timer.hh"
#include "search/axes.hh"
#include "util/fields.hh"
#include "util/json.hh"
#include "util/names.hh"
#include "workloads/workload.hh"

namespace lll::service
{

using util::ErrorCode;
using util::JsonValue;
using util::Status;
using workloads::OptSet;

util::JsonLimits
requestJsonLimits()
{
    util::JsonLimits limits;
    limits.maxDepth = kMaxRequestDepth;
    limits.maxBytes = kMaxRequestBytes;
    return limits;
}

util::Result<RunRequest>
parseRunRequest(const std::string &line, size_t line_no)
{
    util::Result<JsonValue> doc = util::parseJson(line,
                                                  requestJsonLimits());
    if (!doc.ok()) {
        return doc.status().withContext("request %zu", line_no);
    }
    auto fail = [line_no](const Status &s) -> Status {
        return s.withContext("request %zu", line_no);
    };
    if (!doc->isObject()) {
        return fail(Status::error(ErrorCode::InvalidArgument,
                                  "request must be a JSON object, "
                                  "got %s", doc->typeName()));
    }
    util::Result<double> version = doc->getNumber("schema_version");
    if (!version.ok())
        return fail(version.status());
    if (*version != kServiceSchemaVersionV1 &&
        *version != kServiceSchemaVersion) {
        return fail(Status::error(
            ErrorCode::InvalidArgument,
            "unsupported schema_version %g (this build speaks 1-%d)",
            *version, kServiceSchemaVersion));
    }
    const bool v2 = *version == kServiceSchemaVersion;

    // Per-version field lists: a v1 line must behave exactly as it did
    // on a v1-only build, so the v2-only fields stay unknown to it.
    static constexpr std::string_view kEnvelope[] = {"schema_version",
                                                     "id"};
    static constexpr std::string_view kV2Envelope[] = {"schema_version",
                                                       "id", "kind"};
    Status known =
        v2 ? util::FieldReader::rejectUnknown<core::StageRequest,
                                              search::SearchSpec>(
                 *doc, "request", kV2Envelope)
           : util::FieldReader::rejectUnknown<core::StageRequest>(
                 *doc, "request", kEnvelope);
    if (!known.ok())
        return fail(known);

    RunRequest req;
    req.schemaVersion = int(*version);

    std::string kind = "run";
    if (v2) {
        util::Result<std::string> k = doc->getStringOr("kind", "run");
        if (!k.ok())
            return fail(k.status());
        kind = k.take();
        if (kind != "run" && kind != "search") {
            return fail(Status::error(
                ErrorCode::InvalidArgument,
                "unknown request kind \"%s\" (this build speaks "
                "\"run\" and \"search\")",
                kind.c_str()));
        }
    }
    req.isSearch = kind == "search";
    if (!req.isSearch) {
        for (const auto &[k, v] : doc->object) {
            (void)v;
            if (util::isFieldOf<search::SearchSpec>(k)) {
                return fail(Status::error(
                    ErrorCode::InvalidArgument,
                    "field \"%s\" is only valid on kind \"search\"",
                    k.c_str()));
            }
        }
    }
    char default_id[32];
    std::snprintf(default_id, sizeof(default_id), "#%zu", line_no);
    util::Result<std::string> id = doc->getStringOr("id", default_id);
    if (!id.ok())
        return fail(id.status());
    req.id = id.take();

    req.spec.name = "inline"; // an inline spec's name when it gives none
    util::FieldReader stage(*doc, util::FieldReader::Policy::Request, {},
                            "request");
    visitFields(stage, static_cast<core::StageRequest &>(req));
    if (!stage.status().ok())
        return fail(stage.status());
    if (req.hasSpec && !req.opts.empty()) {
        return fail(Status::error(
            ErrorCode::InvalidArgument,
            "inline-spec requests take no \"opts\" (the spec "
            "already describes the optimized kernel)"));
    }

    if (req.isSearch) {
        search::SearchSpec &space = req.search;
        static_cast<core::StageRequest &>(space) = req;
        util::FieldReader fields(*doc, util::FieldReader::Policy::Request);
        visitFields(fields, space);
        if (!fields.status().ok())
            return fail(fields.status());
        if (space.axes.empty() && space.points.empty()) {
            return fail(Status::error(
                ErrorCode::InvalidArgument,
                "search request needs a non-empty \"axes\" array "
                "(or explicit \"points\")"));
        }
    }
    return req;
}

namespace
{

/** stageDataJson() written through @p w. */
void
writeStageData(util::JsonWriter &w, const core::StageMetrics &m,
               const std::string &platform, const std::string &workload,
               const std::string &opts_label)
{
    w.beginObject()
        .member("platform", platform)
        .member("workload", workload)
        .member("opts", opts_label)
        .member("throughput", m.throughput);
    util::FieldWriter data(w, {}, core::kStageData);
    visitFields(data, m.analysis);
    w.end();
}

} // namespace

std::string
renderRunResponse(const RunResponse &r, bool include_timing)
{
    std::string out;
    out.reserve(512);
    util::JsonWriter w(out);
    w.beginObject()
        .member("schema_version", r.schemaVersion)
        .member("id", r.id)
        .key("status")
        .beginObject()
        .member("code", util::errorCodeName(r.status.code()))
        .member("exit", util::exitCodeFor(r.status.code()))
        .member("message", r.status.message())
        .end();
    if (include_timing) {
        const StageTiming &t = r.timing;
        w.key("timing")
            .beginObject()
            .member("parse_ns", t.parseNs)
            .member("coalesce_ns", t.coalesceNs)
            .member("queue_wait_ns", t.queueWaitNs)
            .member("simulate_ns", t.simulateNs)
            .member("respond_ns", t.respondNs)
            .member("total_ns", t.totalNs)
            .end();
    }
    w.key("data");
    if (!r.status.ok())
        w.null();
    else if (r.isSearch)
        search::writeSearchData(w, r.search, false);
    else
        writeStageData(w, r.metrics, r.platform, r.workload, r.optsLabel);
    w.end();
    return out;
}

std::string
stageDataJson(const core::StageMetrics &m, const std::string &platform,
              const std::string &workload,
              const std::string &opts_label)
{
    std::string out;
    util::JsonWriter w(out);
    writeStageData(w, m, platform, workload, opts_label);
    return out;
}

std::vector<RunResponse>
RunService::serveLines(const std::vector<std::string> &lines,
                       size_t first_line_no)
{
    return *serve(lines, first_line_no, true);
}

std::optional<std::vector<RunResponse>>
RunService::answerWithoutBlocking(const std::vector<std::string> &lines,
                                  size_t first_line_no)
{
    return serve(lines, first_line_no, false);
}

std::optional<std::vector<RunResponse>>
RunService::serve(const std::vector<std::string> &lines,
                  size_t first_line_no, bool may_block)
{
    obs::ScopedSpan batch_span("serve.batch");

    /** One request's place in the batch while it is in flight. */
    struct Slot
    {
        RunRequest req;
        Status status;       //!< first error on the request's path
        size_t unit = SIZE_MAX; //!< index into the coalesced units
        StageTiming timing;  //!< host wall time per stage
        search::SearchResult search; //!< kind:"search" outcome
    };
    std::vector<Slot> slots;

    {
        obs::ScopedSpan span("serve.parse");
        size_t line_no = first_line_no > 0 ? first_line_no - 1 : 0;
        for (const std::string &line : lines) {
            ++line_no;
            if (isBlankLine(line))
                continue;
            obs::WallTimer parse_timer;
            Slot slot;
            util::Result<RunRequest> req =
                parseRunRequest(line, line_no);
            if (req.ok()) {
                slot.req = req.take();
            } else {
                char fallback[32];
                std::snprintf(fallback, sizeof(fallback), "#%zu",
                              line_no);
                slot.req.id = fallback;
                slot.status = req.status();
            }
            slot.timing.parseNs = parse_timer.elapsedNs();
            slots.push_back(std::move(slot));
        }
    }

    // Resolve and admit every run request, then coalesce duplicate
    // units: requests whose admitted stage has the same key — same
    // platform, spec, opts, seed, windows and cores — share one unit
    // and therefore one simulation.  A refused request never becomes a
    // unit.
    std::vector<core::AdmittedStage> units;
    std::vector<workloads::WorkloadPtr> owned; //!< outlive the runner
    std::map<std::string, size_t> by_key;
    {
        obs::ScopedSpan span("serve.coalesce");
        for (Slot &slot : slots) {
            // Search requests resolve their own names inside the
            // searcher and never share a stage unit.
            if (!slot.status.ok() || slot.req.isSearch)
                continue;
            obs::WallTimer coalesce_timer;
            util::Result<core::ResolvedRequest> resolved =
                core::resolveRequest(slot.req);
            util::Result<core::AdmittedStage> admitted =
                resolved.ok() ? core::admitStage(std::move(resolved->unit))
                              : resolved.status();
            if (admitted.ok()) {
                auto [it, fresh] =
                    by_key.emplace(admitted->stageKey, units.size());
                if (fresh) {
                    units.push_back(admitted.take());
                    owned.push_back(std::move(resolved->workload));
                }
                slot.unit = it->second;
            } else {
                slot.status = admitted.status();
            }
            slot.timing.coalesceNs = coalesce_timer.elapsedNs();
        }
    }

    // A caller that may block runs every unit and each search; one that
    // may not takes only what the cache probe answers, and otherwise
    // stops here, before anything is counted or recorded.
    std::vector<core::SweepRunner::StageOutcome> outcomes;
    {
        obs::ScopedSpan span("serve.run");
        if (!may_block &&
            std::any_of(slots.begin(), slots.end(), [](const Slot &slot) {
                return slot.status.ok() && slot.req.isSearch;
            }))
            return std::nullopt;
        core::SweepRunner runner(params_);
        std::optional<std::vector<core::SweepRunner::StageOutcome>> ran =
            may_block ? runner.runAdmitted(units) : runner.probeAdmitted(units);
        if (!ran)
            return std::nullopt;
        outcomes = std::move(*ran);

        // Search requests run after the stage units, in request order,
        // each through its own bounds-pruned wave pipeline (the
        // searcher shares this service's jobs/cache/registry, so warm
        // neighborhoods still coalesce through the stage memo).
        for (Slot &slot : slots) {
            if (!slot.status.ok() || !slot.req.isSearch)
                continue;
            obs::WallTimer search_timer;
            util::Result<search::SearchResult> result =
                search::Searcher(params_).run(slot.req.search);
            slot.timing.simulateNs = search_timer.elapsedNs();
            if (result.ok())
                slot.search = result.take();
            else
                slot.status = result.status();
        }
    }

    std::vector<RunResponse> responses;
    size_t failed = 0;
    {
        obs::ScopedSpan span("serve.respond");
        responses.reserve(slots.size());
        for (Slot &slot : slots) {
            obs::WallTimer respond_timer;
            RunResponse resp;
            resp.schemaVersion = slot.req.schemaVersion;
            resp.id = slot.req.id;
            if (!slot.status.ok()) {
                resp.status = slot.status;
            } else if (slot.req.isSearch) {
                resp.isSearch = true;
                resp.search = std::move(slot.search);
            } else {
                const core::SweepRunner::StageOutcome &out =
                    outcomes[slot.unit];
                resp.status = out.status;
                if (out.status.ok())
                    resp.metrics = out.metrics;
                // Coalesced requests share their unit's queue-wait and
                // simulation time: each of them did wait on that work.
                slot.timing.queueWaitNs = out.queueWaitNs;
                slot.timing.simulateNs = out.simulateNs;
            }
            if (resp.status.ok()) {
                if (resp.isSearch) {
                    resp.platform = resp.search.platform;
                    resp.workload = resp.search.workload;
                    resp.optsLabel = resp.search.optsLabel;
                } else {
                    resp.platform = units[slot.unit].platform.name;
                    resp.workload = units[slot.unit].workload->name();
                    resp.optsLabel = slot.req.opts.label();
                }
            } else {
                ++failed;
            }
            slot.timing.respondNs = respond_timer.elapsedNs();
            slot.timing.totalNs = slot.timing.sum();
            resp.timing = slot.timing;
            responses.push_back(std::move(resp));
        }
    }

    if (params_.registry) {
        obs::MetricRegistry &reg = *params_.registry;
        reg.counter(util::names::kServiceBatchesTotal)++;
        reg.counter(util::names::kServiceRequestsTotal)
            .increment(slots.size());
        reg.counter(util::names::kServiceRequestsFailedTotal).increment(failed);
        reg.counter(util::names::kServiceUnitsTotal).increment(units.size());
        // Requests that resolved to an already-seen unit.
        size_t resolved = 0;
        for (const Slot &slot : slots) {
            if (slot.unit != SIZE_MAX)
                ++resolved;
        }
        reg.counter(util::names::kServiceCoalescedRequestsTotal)
            .increment(resolved - units.size());
        reg.setGauge(util::names::kServiceBatchSize, double(slots.size()));
        // Per-request end-to-end latency, one sample per request per
        // stage; percentiles come out via Log2Histogram::percentile.
        for (const RunResponse &resp : responses) {
            const StageTiming &t = resp.timing;
            reg.histogram(util::names::kServiceLatencyParseNs).sample(t.parseNs);
            reg.histogram(util::names::kServiceLatencyCoalesceNs)
                .sample(t.coalesceNs);
            reg.histogram(util::names::kServiceLatencyQueueWaitNs)
                .sample(t.queueWaitNs);
            reg.histogram(util::names::kServiceLatencySimulateNs)
                .sample(t.simulateNs);
            reg.histogram(util::names::kServiceLatencyRespondNs)
                .sample(t.respondNs);
            reg.histogram(util::names::kServiceLatencyTotalNs).sample(t.totalNs);
        }
        if (params_.cache) {
            // Every cache counter comes from this batch's own lookups
            // and inserts, so concurrent batches on a shared cache
            // never count each other's hits, misses or evictions.
            core::CacheStats mine;
            for (const core::SweepRunner::StageOutcome &o : outcomes)
                mine += o.cache;
            for (const Slot &slot : slots)
                mine += slot.search.cache;
            reg.counter(util::names::kServiceCacheHitsTotal)
                .increment(mine.hits);
            reg.counter(util::names::kServiceCacheMissesTotal)
                .increment(mine.misses);
            reg.counter(util::names::kServiceCacheEvictionsTotal)
                .increment(mine.evictions);
            reg.counter(util::names::kServiceCacheSpillEvictionsTotal)
                .increment(mine.spillEvictions);
        }
    }
    return responses;
}

} // namespace lll::service
