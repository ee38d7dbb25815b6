#include "service/service.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <string_view>

#include "core/analyzer.hh"
#include "obs/span.hh"
#include "obs/timer.hh"
#include "platforms/platform.hh"
#include "search/axes.hh"
#include "util/json.hh"
#include "util/names.hh"
#include "workloads/spec_workload.hh"
#include "workloads/workload.hh"

namespace lll::service
{

using util::ErrorCode;
using util::JsonValue;
using util::Status;
using workloads::OptSet;

namespace
{

/** Reject member keys outside @p known — a typo'd field silently
 *  ignored is an analysis the caller did not ask for. */
Status
rejectUnknownFields(const JsonValue &obj,
                    std::span<const std::string_view> known,
                    const char *what,
                    std::span<const std::string_view> also_known = {})
{
    auto listed = [](std::span<const std::string_view> names,
                     const std::string &key) {
        for (std::string_view name : names) {
            if (key == name)
                return true;
        }
        return false;
    };
    for (const auto &[k, v] : obj.object) {
        (void)v;
        if (!listed(known, k) && !listed(also_known, k)) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "unknown %s field \"%s\"", what,
                                 k.c_str());
        }
    }
    return Status::okStatus();
}

/**
 * Member @p key as a T, @p fallback when absent.  InvalidArgument names
 * the field unless the number is an integer in [@p lo, max of T]; the
 * range is checked on the double, so the conversion is always defined.
 */
template <typename T>
util::Result<T>
getInteger(const JsonValue &obj, const std::string &key, T fallback,
           T lo = std::numeric_limits<T>::min())
{
    util::Result<double> v = obj.getNumberOr(key, double(fallback));
    if (!v.ok())
        return v.status();
    // 2^digits (one past the max of T) is exact as a double; the max
    // itself need not be.
    const double end = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (!(*v >= double(lo) && *v < end) || *v != std::floor(*v)) {
        return Status::error(
            ErrorCode::InvalidArgument,
            "field \"%s\" must be an integer in [%lld, %llu]",
            key.c_str(), static_cast<long long>(lo),
            static_cast<unsigned long long>(std::numeric_limits<T>::max()));
    }
    return static_cast<T>(*v);
}

util::Result<sim::StreamDesc>
parseStream(const JsonValue &v, size_t index)
{
    if (!v.isObject()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "spec stream %zu must be an object, got %s",
                             index, v.typeName());
    }
    static constexpr std::string_view kFields[] = {
        "kind", "footprint_lines", "weight", "stride_lines", "store",
        "shared_across_threads", "reuse_fraction", "reuse_window",
        "sw_prefetchable"};
    LLL_RETURN_IF_ERROR(rejectUnknownFields(v, kFields, "spec stream"));

    sim::StreamDesc s;
    util::Result<std::string> kind = v.getStringOr("kind", "sequential");
    if (!kind.ok())
        return kind.status();
    if (*kind == "sequential") {
        s.kind = sim::StreamDesc::Kind::Sequential;
    } else if (*kind == "strided") {
        s.kind = sim::StreamDesc::Kind::Strided;
    } else if (*kind == "random") {
        s.kind = sim::StreamDesc::Kind::Random;
    } else {
        return Status::error(ErrorCode::InvalidArgument,
                             "spec stream %zu: unknown kind \"%s\"",
                             index, kind->c_str());
    }
    util::Result<uint64_t> fp =
        getInteger(v, "footprint_lines", s.footprintLines);
    if (!fp.ok())
        return fp.status();
    s.footprintLines = *fp;
    util::Result<double> weight = v.getNumberOr("weight", s.weight);
    if (!weight.ok())
        return weight.status();
    s.weight = *weight;
    util::Result<int> stride = getInteger(v, "stride_lines", s.strideLines);
    if (!stride.ok())
        return stride.status();
    s.strideLines = *stride;
    util::Result<bool> store = v.getBoolOr("store", s.store);
    if (!store.ok())
        return store.status();
    s.store = *store;
    util::Result<bool> shared =
        v.getBoolOr("shared_across_threads", s.sharedAcrossThreads);
    if (!shared.ok())
        return shared.status();
    s.sharedAcrossThreads = *shared;
    util::Result<double> reuse =
        v.getNumberOr("reuse_fraction", s.reuseFraction);
    if (!reuse.ok())
        return reuse.status();
    s.reuseFraction = *reuse;
    util::Result<unsigned> rw = getInteger(v, "reuse_window", s.reuseWindow);
    if (!rw.ok())
        return rw.status();
    s.reuseWindow = *rw;
    util::Result<bool> pref =
        v.getBoolOr("sw_prefetchable", s.swPrefetchable);
    if (!pref.ok())
        return pref.status();
    s.swPrefetchable = *pref;
    return s;
}

util::Result<sim::KernelSpec>
parseSpec(const JsonValue &v)
{
    if (!v.isObject()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "field \"spec\" must be an object, got %s",
                             v.typeName());
    }
    static constexpr std::string_view kFields[] = {
        "name", "streams", "compute_cycles_per_op", "window",
        "work_per_op", "sw_prefetch_l2", "sw_prefetch_distance",
        "sw_prefetch_overhead_cycles"};
    LLL_RETURN_IF_ERROR(rejectUnknownFields(v, kFields, "spec"));

    sim::KernelSpec spec;
    util::Result<std::string> name = v.getStringOr("name", "inline");
    if (!name.ok())
        return name.status();
    spec.name = *name;

    const JsonValue *streams = v.find("streams");
    if (!streams || !streams->isArray() || streams->array.empty()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "spec needs a non-empty \"streams\" array");
    }
    for (size_t i = 0; i < streams->array.size(); ++i) {
        util::Result<sim::StreamDesc> s =
            parseStream(streams->array[i], i);
        if (!s.ok())
            return s.status();
        spec.streams.push_back(s.take());
    }

    util::Result<double> cycles =
        v.getNumberOr("compute_cycles_per_op", spec.computeCyclesPerOp);
    if (!cycles.ok())
        return cycles.status();
    spec.computeCyclesPerOp = *cycles;
    util::Result<unsigned> window = getInteger(v, "window", spec.window);
    if (!window.ok())
        return window.status();
    spec.window = *window;
    util::Result<double> work =
        v.getNumberOr("work_per_op", spec.workPerOp);
    if (!work.ok())
        return work.status();
    spec.workPerOp = *work;
    util::Result<bool> pl2 =
        v.getBoolOr("sw_prefetch_l2", spec.swPrefetchL2);
    if (!pl2.ok())
        return pl2.status();
    spec.swPrefetchL2 = *pl2;
    util::Result<unsigned> dist =
        getInteger(v, "sw_prefetch_distance", spec.swPrefetchDistance);
    if (!dist.ok())
        return dist.status();
    spec.swPrefetchDistance = *dist;
    util::Result<double> overhead = v.getNumberOr(
        "sw_prefetch_overhead_cycles", spec.swPrefetchOverheadCycles);
    if (!overhead.ok())
        return overhead.status();
    spec.swPrefetchOverheadCycles = *overhead;
    return spec;
}

} // namespace

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
    static constexpr std::string_view kV1Fields[] = {
        "schema_version", "id",   "platform",  "workload",
        "spec",           "random_dominated", "opts", "cores",
        "seed",           "warmup_us",        "measure_us"};
    static constexpr std::string_view kV2Fields[] = {
        "kind", "axes", "points", "bank_weight", "max_candidates",
        "no_prune"};
    Status known = rejectUnknownFields(
        *doc, kV1Fields, "request",
        v2 ? std::span<const std::string_view>(kV2Fields)
           : std::span<const std::string_view>());
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
        for (const char *f :
             {"axes", "points", "bank_weight", "max_candidates",
              "no_prune"}) {
            if (doc->find(f)) {
                return fail(Status::error(
                    ErrorCode::InvalidArgument,
                    "field \"%s\" is only valid on kind \"search\"",
                    f));
            }
        }
    }
    char default_id[32];
    std::snprintf(default_id, sizeof(default_id), "#%zu", line_no);
    util::Result<std::string> id = doc->getStringOr("id", default_id);
    if (!id.ok())
        return fail(id.status());
    req.id = id.take();

    util::Result<std::string> platform = doc->getString("platform");
    if (!platform.ok())
        return fail(platform.status());
    req.platformName = platform.take();

    const JsonValue *workload = doc->find("workload");
    const JsonValue *spec = doc->find("spec");
    if ((workload == nullptr) == (spec == nullptr)) {
        return fail(Status::error(ErrorCode::InvalidArgument,
                                  "request needs exactly one of "
                                  "\"workload\" and \"spec\""));
    }
    if (workload) {
        if (!workload->isString()) {
            return fail(Status::error(
                ErrorCode::InvalidArgument,
                "field \"workload\" must be a string, got %s",
                workload->typeName()));
        }
        req.workloadName = workload->string;
    } else {
        util::Result<sim::KernelSpec> parsed = parseSpec(*spec);
        if (!parsed.ok())
            return fail(parsed.status());
        req.hasSpec = true;
        req.spec = parsed.take();
        util::Result<bool> random =
            doc->getBoolOr("random_dominated", false);
        if (!random.ok())
            return fail(random.status());
        req.randomDominated = *random;
    }

    const JsonValue *opts = doc->find("opts");
    if (opts) {
        if (!opts->isArray()) {
            return fail(Status::error(
                ErrorCode::InvalidArgument,
                "field \"opts\" must be an array, got %s",
                opts->typeName()));
        }
        if (req.hasSpec && !opts->array.empty()) {
            return fail(Status::error(
                ErrorCode::InvalidArgument,
                "inline-spec requests take no \"opts\" (the spec "
                "already describes the optimized kernel)"));
        }
        for (const JsonValue &o : opts->array) {
            if (!o.isString()) {
                return fail(Status::error(
                    ErrorCode::InvalidArgument,
                    "\"opts\" entries must be strings, got %s",
                    o.typeName()));
            }
            std::optional<workloads::Opt> opt =
                workloads::optFromShortName(o.string);
            if (!opt) {
                return fail(Status::error(ErrorCode::InvalidArgument,
                                          "unknown optimization '%s'",
                                          o.string.c_str()));
            }
            req.opts = req.opts.with(*opt);
        }
    }

    util::Result<int> cores = getInteger(*doc, "cores", 0, 0);
    if (!cores.ok())
        return fail(cores.status());
    req.cores = *cores;

    util::Result<uint64_t> seed = getInteger(*doc, "seed", req.seed);
    if (!seed.ok())
        return fail(seed.status());
    req.seed = *seed;

    util::Result<double> warmup = doc->getNumberOr("warmup_us", 0.0);
    if (!warmup.ok())
        return fail(warmup.status());
    util::Result<double> measure = doc->getNumberOr("measure_us", 0.0);
    if (!measure.ok())
        return fail(measure.status());
    if (*warmup < 0.0 || *measure < 0.0) {
        return fail(Status::error(ErrorCode::InvalidArgument,
                                  "window lengths must be >= 0"));
    }
    req.warmupUs = *warmup;
    req.measureUs = *measure;

    if (req.isSearch) {
        search::SearchSpec &space = req.search;
        const JsonValue *axes = doc->find("axes");
        if (axes) {
            if (!axes->isArray()) {
                return fail(Status::error(
                    ErrorCode::InvalidArgument,
                    "field \"axes\" must be an array, got %s",
                    axes->typeName()));
            }
            for (const JsonValue &a : axes->array) {
                if (!a.isString()) {
                    return fail(Status::error(
                        ErrorCode::InvalidArgument,
                        "\"axes\" entries must be \"name=spec\" "
                        "strings, got %s",
                        a.typeName()));
                }
                util::Result<search::Axis> axis =
                    search::parseAxis(a.string);
                if (!axis.ok())
                    return fail(axis.status());
                space.axes.push_back(axis.take());
            }
        }
        const JsonValue *points = doc->find("points");
        if (points) {
            if (!points->isArray()) {
                return fail(Status::error(
                    ErrorCode::InvalidArgument,
                    "field \"points\" must be an array, got %s",
                    points->typeName()));
            }
            for (const JsonValue &p : points->array) {
                if (!p.isString()) {
                    return fail(Status::error(
                        ErrorCode::InvalidArgument,
                        "\"points\" entries must be "
                        "\"name=value,...\" strings, got %s",
                        p.typeName()));
                }
                util::Result<search::Assignment> point =
                    search::parsePoint(p.string);
                if (!point.ok())
                    return fail(point.status());
                space.points.push_back(point.take());
            }
        }
        if (space.axes.empty() && space.points.empty()) {
            return fail(Status::error(
                ErrorCode::InvalidArgument,
                "search request needs a non-empty \"axes\" array "
                "(or explicit \"points\")"));
        }
        util::Result<double> weight =
            doc->getNumberOr("bank_weight", space.bankWeight);
        if (!weight.ok())
            return fail(weight.status());
        space.bankWeight = *weight;
        util::Result<size_t> max_cand =
            getInteger(*doc, "max_candidates", space.maxCandidates);
        if (!max_cand.ok())
            return fail(max_cand.status());
        space.maxCandidates = *max_cand;
        util::Result<bool> no_prune = doc->getBoolOr("no_prune", false);
        if (!no_prune.ok())
            return fail(no_prune.status());
        space.disablePruning = *no_prune;

        // Mirror the shared fields so the searcher sees one object.
        space.platformName = req.platformName;
        space.workloadName = req.workloadName;
        space.hasSpec = req.hasSpec;
        space.spec = req.spec;
        space.randomDominated = req.randomDominated;
        space.opts = req.opts;
        space.cores = req.cores;
        space.seed = req.seed;
        space.warmupUs = req.warmupUs;
        space.measureUs = req.measureUs;
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
    const core::Analysis &a = m.analysis;
    w.beginObject()
        .member("platform", platform)
        .member("workload", workload)
        .member("opts", opts_label)
        .member("throughput", m.throughput)
        .member("bw_gbs", a.bwGBs)
        .member("pct_peak", a.pctPeak)
        .member("latency_ns", a.latencyNs)
        .member("n_avg", a.nAvg)
        .member("access_class", core::accessClassName(a.accessClass))
        .member("limiting_level", core::mshrLevelName(a.limitingLevel))
        .member("limiting_mshrs", a.limitingMshrs)
        .member("headroom", a.headroom)
        .member("max_achievable_gbs", a.maxAchievableGBs)
        .member("cores_used", a.coresUsed)
        .key("warnings")
        .beginArray();
    for (const std::string &warning : a.warnings)
        w.value(warning);
    w.end().end();
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
            bool blank = true;
            for (char c : line) {
                if (c != ' ' && c != '\t' && c != '\r') {
                    blank = false;
                    break;
                }
            }
            if (blank)
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

    // Resolve names and coalesce duplicate units: requests that hash
    // to the same stage key — same platform, spec, opts, seed, windows
    // and cores — share one StageUnit and therefore one simulation.
    std::vector<core::SweepRunner::StageUnit> units;
    std::vector<workloads::WorkloadPtr> owned; //!< outlive the runner
    std::map<std::string, size_t> by_key;
    // Records the coalesce time on every exit path of the loop body
    // (several `continue`s bail out on per-request errors).
    struct CoalesceDone
    {
        Slot &slot;
        obs::WallTimer &timer;
        ~CoalesceDone() { slot.timing.coalesceNs = timer.elapsedNs(); }
    };
    {
        obs::ScopedSpan span("serve.coalesce");
        for (Slot &slot : slots) {
            if (!slot.status.ok())
                continue;
            // Search requests resolve their own names inside the
            // searcher and never share a stage unit.
            if (slot.req.isSearch)
                continue;
            obs::WallTimer coalesce_timer;
            CoalesceDone record_coalesce{slot, coalesce_timer};
            RunRequest &req = slot.req;
            util::Result<platforms::Platform> plat =
                platforms::findPlatform(req.platformName);
            if (!plat.ok()) {
                slot.status = plat.status();
                continue;
            }
            workloads::WorkloadPtr wl;
            if (req.hasSpec) {
                wl = workloads::inlineSpecWorkload(req.spec,
                                                   req.randomDominated);
            } else {
                util::Result<workloads::WorkloadPtr> found =
                    workloads::findWorkload(req.workloadName);
                if (!found.ok()) {
                    slot.status = found.status();
                    continue;
                }
                wl = found.take();
            }
            const int cores =
                req.cores > 0 ? req.cores : plat->totalCores;
            // Infeasible (platform, cores, smt) combinations fail here
            // per-request instead of aborting inside the simulator.
            util::Result<sim::SystemParams> sp =
                plat->trySysParams(cores, req.opts.smtWays());
            if (!sp.ok()) {
                slot.status = sp.status();
                continue;
            }
            const double warmup = req.warmupUs > 0.0
                                      ? req.warmupUs
                                      : wl->warmupUs();
            const double measure = req.measureUs > 0.0
                                       ? req.measureUs
                                       : wl->measureUs();
            std::string key = core::ResultCache::stageKey(
                *plat, wl->spec(*plat, req.opts), req.opts, req.seed,
                warmup, measure, cores);
            auto [it, fresh] = by_key.emplace(key, units.size());
            if (fresh) {
                units.push_back({std::move(*plat), wl.get(), req.opts,
                                 warmup, measure, cores, req.seed,
                                 std::move(key)});
                owned.push_back(std::move(wl));
            }
            slot.unit = it->second;
        }
    }

    const core::ResultCache::Stats before =
        params_.cache ? params_.cache->stats()
                      : core::ResultCache::Stats();

    std::vector<core::SweepRunner::StageOutcome> outcomes;
    {
        obs::ScopedSpan span("serve.run");
        core::SweepRunner::Params rp;
        rp.jobs = params_.jobs;
        rp.cache = params_.cache;
        rp.registry = params_.registry;
        core::SweepRunner runner(rp);
        outcomes = runner.runStages(units);

        // Search requests run after the stage units, in request order,
        // each through its own bounds-pruned wave pipeline (the
        // searcher shares this service's jobs/cache/registry, so warm
        // neighborhoods still coalesce through the stage memo).
        for (Slot &slot : slots) {
            if (!slot.status.ok() || !slot.req.isSearch)
                continue;
            obs::WallTimer search_timer;
            search::Searcher searcher(
                {params_.jobs, params_.cache, params_.registry});
            util::Result<search::SearchResult> result =
                searcher.run(slot.req.search);
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
            // Hits and misses come from this batch's own lookups, so
            // concurrent batches on a shared cache never count each
            // other's.
            uint64_t lookups = 0;
            uint64_t hits = 0;
            for (const core::SweepRunner::StageOutcome &o : outcomes) {
                lookups += o.cacheLookups;
                hits += o.cacheHits;
            }
            for (const Slot &slot : slots) {
                lookups += slot.search.cacheLookups;
                hits += slot.search.cacheHits;
            }
            reg.counter(util::names::kServiceCacheHitsTotal).increment(hits);
            reg.counter(util::names::kServiceCacheMissesTotal)
                .increment(lookups - hits);
            const core::ResultCache::Stats after =
                params_.cache->stats();
            reg.counter(util::names::kServiceCacheEvictionsTotal)
                .increment(after.evictions - before.evictions);
            reg.counter(util::names::kServiceCacheSpillEvictionsTotal)
                .increment(after.spillEvictions -
                           before.spillEvictions);
        }
    }
    return responses;
}

} // namespace lll::service
