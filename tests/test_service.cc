/**
 * @file
 * Tests for the batched run service (DESIGN.md §12): request parsing
 * and validation, response ordering, duplicate-unit coalescing (one
 * simulation per distinct stage key), per-request failure isolation,
 * warm-cache reruns, and the service telemetry counters.
 */

#include <gtest/gtest.h>

#include <thread>

#include <string>
#include <vector>

#include "obs/registry.hh"
#include "obs/span.hh"
#include "search/search.hh"
#include "service/service.hh"
#include "util/status.hh"
#include "xmem/xmem_harness.hh"

namespace lll::service
{
namespace
{

using util::ErrorCode;

/**
 * Stage simulations run so far on this thread (workers fold into it).
 * Counts only the `stage[...]/simulate` span itself, not the
 * sim.warmup/sim.measure phases nested inside it — one per stage.
 */
uint64_t
simulateSpanCount()
{
    const std::string leaf = "/simulate";
    uint64_t n = 0;
    for (const obs::SpanTracker::Stat &s :
         obs::SpanTracker::global().stats()) {
        if (s.path.size() >= leaf.size() &&
            s.path.compare(s.path.size() - leaf.size(), leaf.size(),
                           leaf) == 0)
            n += s.count;
    }
    return n;
}

/** A fast well-formed request line (short windows, few cores). */
std::string
quickRequest(const std::string &id, const std::string &workload,
             const std::string &extra = {})
{
    return "{\"schema_version\": 1, \"id\": \"" + id +
           "\", \"platform\": \"skl\", \"workload\": \"" + workload +
           "\", \"cores\": 6, \"warmup_us\": 5, \"measure_us\": 10" +
           extra + "}";
}

/** The on-disk profile cache must exist before timing-sensitive
 *  comparisons (first measurement differs from its disk round-trip). */
void
warmProfileCache()
{
    platforms::Platform skl = platforms::skl();
    util::Result<xmem::LatencyProfile> prof =
        xmem::XMemHarness().measureCachedChecked(
            skl, xmem::defaultProfilePath(skl));
    ASSERT_TRUE(prof.ok()) << prof.status().toString();
}

TEST(ParseRunRequest, AcceptsTheDocumentedShape)
{
    util::Result<RunRequest> r = parseRunRequest(
        "{\"schema_version\": 1, \"id\": \"r1\", \"platform\": "
        "\"bdx\", \"workload\": \"isx\", \"opts\": [\"vect\", "
        "\"2-ht\"], \"cores\": 4, \"seed\": 11, \"warmup_us\": 2.5, "
        "\"measure_us\": 7.5}",
        1);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r->id, "r1");
    EXPECT_EQ(r->platformName, "bdx");
    EXPECT_EQ(r->workloadName, "isx");
    EXPECT_FALSE(r->hasSpec);
    EXPECT_TRUE(r->opts.has(workloads::Opt::Vectorize));
    EXPECT_TRUE(r->opts.has(workloads::Opt::Smt2));
    EXPECT_EQ(r->cores, 4);
    EXPECT_EQ(r->seed, 11u);
    EXPECT_DOUBLE_EQ(r->warmupUs, 2.5);
    EXPECT_DOUBLE_EQ(r->measureUs, 7.5);
}

TEST(ParseRunRequest, DefaultsIdToLineNumber)
{
    util::Result<RunRequest> r = parseRunRequest(
        "{\"schema_version\": 1, \"platform\": \"skl\", "
        "\"workload\": \"isx\"}",
        42);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r->id, "#42");
    EXPECT_EQ(r->cores, 0);
    EXPECT_EQ(r->seed, 7u);
    EXPECT_DOUBLE_EQ(r->warmupUs, 0.0);
}

TEST(ParseRunRequest, RejectsMalformedInput)
{
    struct Case
    {
        const char *line;
        ErrorCode code;
    };
    const Case cases[] = {
        {"not json", ErrorCode::CorruptData},
        {"[1, 2]", ErrorCode::InvalidArgument},
        {"{\"platform\": \"skl\", \"workload\": \"isx\"}",
         ErrorCode::InvalidArgument}, // schema_version required
        {"{\"schema_version\": 9, \"platform\": \"skl\", "
         "\"workload\": \"isx\"}",
         ErrorCode::InvalidArgument},
        {"{\"schema_version\": 1, \"workload\": \"isx\"}",
         ErrorCode::InvalidArgument}, // platform required
        {"{\"schema_version\": 1, \"platform\": \"skl\"}",
         ErrorCode::InvalidArgument}, // workload xor spec
        {"{\"schema_version\": 1, \"platform\": \"skl\", "
         "\"workload\": \"isx\", \"spec\": {\"streams\": "
         "[{\"kind\": \"random\"}]}}",
         ErrorCode::InvalidArgument},
        {"{\"schema_version\": 1, \"platform\": \"skl\", "
         "\"workload\": \"isx\", \"frobnicate\": true}",
         ErrorCode::InvalidArgument}, // unknown field
        {"{\"schema_version\": 1, \"platform\": \"skl\", "
         "\"workload\": \"isx\", \"opts\": [\"warp-drive\"]}",
         ErrorCode::InvalidArgument},
        {"{\"schema_version\": 1, \"platform\": \"skl\", "
         "\"workload\": \"isx\", \"cores\": -2}",
         ErrorCode::InvalidArgument},
        {"{\"schema_version\": 1, \"platform\": \"skl\", "
         "\"workload\": \"isx\", \"warmup_us\": -1}",
         ErrorCode::InvalidArgument},
        {"{\"schema_version\": 1, \"platform\": \"skl\", "
         "\"spec\": {\"streams\": [{\"kind\": \"random\"}]}, "
         "\"opts\": [\"vect\"]}",
         ErrorCode::InvalidArgument}, // opts x inline spec
        {"{\"schema_version\": 1, \"platform\": \"skl\", "
         "\"spec\": {\"streams\": []}}",
         ErrorCode::InvalidArgument},
    };
    for (const Case &c : cases) {
        util::Result<RunRequest> r = parseRunRequest(c.line, 3);
        ASSERT_FALSE(r.ok()) << c.line;
        EXPECT_EQ(r.status().code(), c.code) << c.line;
        // Every parse error names the offending request line.
        EXPECT_NE(r.status().toString().find("request 3"),
                  std::string::npos)
            << r.status().toString();
    }
}

TEST(ParseRunRequest, ParsesInlineSpec)
{
    util::Result<RunRequest> r = parseRunRequest(
        "{\"schema_version\": 1, \"platform\": \"knl\", "
        "\"random_dominated\": true, \"spec\": {\"name\": \"mine\", "
        "\"window\": 12, \"compute_cycles_per_op\": 3.5, \"streams\": "
        "[{\"kind\": \"random\", \"footprint_lines\": 1000000, "
        "\"weight\": 0.9}, {\"kind\": \"strided\", \"stride_lines\": "
        "4}]}}",
        1);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_TRUE(r->hasSpec);
    EXPECT_TRUE(r->randomDominated);
    EXPECT_EQ(r->spec.name, "mine");
    EXPECT_EQ(r->spec.window, 12u);
    EXPECT_DOUBLE_EQ(r->spec.computeCyclesPerOp, 3.5);
    ASSERT_EQ(r->spec.streams.size(), 2u);
    EXPECT_EQ(r->spec.streams[0].kind, sim::StreamDesc::Kind::Random);
    EXPECT_EQ(r->spec.streams[0].footprintLines, 1000000u);
    EXPECT_EQ(r->spec.streams[1].kind, sim::StreamDesc::Kind::Strided);
    EXPECT_EQ(r->spec.streams[1].strideLines, 4);
}

TEST(ParseRunRequest, ParsesTheDocumentedV2SearchShape)
{
    util::Result<RunRequest> r = parseRunRequest(
        "{\"schema_version\": 2, \"kind\": \"search\", \"id\": "
        "\"s1\", \"platform\": \"skl\", \"workload\": \"isx\", "
        "\"cores\": 6, \"axes\": [\"l2_mshrs=8:64:*2\", "
        "\"banks=4:20:+4\"], \"points\": [\"l2_mshrs=48,banks=10\"], "
        "\"bank_weight\": 0.25, \"max_candidates\": 512, "
        "\"no_prune\": true}",
        1);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r->schemaVersion, 2);
    EXPECT_TRUE(r->isSearch);
    EXPECT_EQ(r->id, "s1");

    // The shared fields are mirrored into the search spec so the
    // searcher sees one coherent object.
    const search::SearchSpec &s = r->search;
    EXPECT_EQ(s.platformName, "skl");
    EXPECT_EQ(s.workloadName, "isx");
    EXPECT_EQ(s.cores, 6);
    ASSERT_EQ(s.axes.size(), 2u);
    EXPECT_EQ(s.axes[0].name, "l2_mshrs");
    EXPECT_EQ(s.axes[0].values, (std::vector<double>{8, 16, 32, 64}));
    EXPECT_EQ(s.axes[1].name, "banks");
    EXPECT_EQ(s.axes[1].values,
              (std::vector<double>{4, 8, 12, 16, 20}));
    ASSERT_EQ(s.points.size(), 1u);
    EXPECT_EQ(s.points[0].label(), "banks=10,l2_mshrs=48");
    EXPECT_DOUBLE_EQ(s.bankWeight, 0.25);
    EXPECT_EQ(s.maxCandidates, 512u);
    EXPECT_TRUE(s.disablePruning);
}

TEST(ParseRunRequest, V2KindRunIsTheV1RequestUnchanged)
{
    util::Result<RunRequest> r = parseRunRequest(
        "{\"schema_version\": 2, \"kind\": \"run\", \"id\": \"r\", "
        "\"platform\": \"bdx\", \"workload\": \"isx\", \"cores\": 4}",
        1);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r->schemaVersion, 2);
    EXPECT_FALSE(r->isSearch);
    EXPECT_EQ(r->platformName, "bdx");
    EXPECT_EQ(r->cores, 4);

    // kind defaults to "run" when absent.
    util::Result<RunRequest> d = parseRunRequest(
        "{\"schema_version\": 2, \"platform\": \"bdx\", "
        "\"workload\": \"isx\"}",
        1);
    ASSERT_TRUE(d.ok()) << d.status().toString();
    EXPECT_FALSE(d->isSearch);
}

TEST(ParseRunRequest, RejectsV2Abuses)
{
    struct Case
    {
        const char *line;
        const char *needle;
    };
    const Case cases[] = {
        // Unknown kind names itself and the kinds this build speaks.
        {"{\"schema_version\": 2, \"kind\": \"frobnicate\", "
         "\"platform\": \"skl\", \"workload\": \"isx\"}",
         "unknown request kind \"frobnicate\""},
        // Search-only fields on kind "run" are a shape error, not
        // silently ignored.
        {"{\"schema_version\": 2, \"kind\": \"run\", \"platform\": "
         "\"skl\", \"workload\": \"isx\", \"axes\": "
         "[\"l2_mshrs=8,16\"]}",
         "only valid on kind \"search\""},
        // A search needs a non-empty space.
        {"{\"schema_version\": 2, \"kind\": \"search\", "
         "\"platform\": \"skl\", \"workload\": \"isx\"}",
         "non-empty \"axes\""},
        // Axis entries go through the real grammar.
        {"{\"schema_version\": 2, \"kind\": \"search\", "
         "\"platform\": \"skl\", \"workload\": \"isx\", "
         "\"axes\": [\"warp_factor=1,2\"]}",
         "warp_factor"},
    };
    for (const Case &c : cases) {
        util::Result<RunRequest> r = parseRunRequest(c.line, 5);
        ASSERT_FALSE(r.ok()) << c.line;
        EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument)
            << c.line;
        EXPECT_NE(r.status().toString().find(c.needle),
                  std::string::npos)
            << r.status().toString();
    }
}

TEST(ParseRunRequest, IntegerFieldsAreRangeCheckedBeforeConversion)
{
    // Each integer field at its type's maximum parses to exactly that
    // value; one past it fails naming the field instead of wrapping
    // ("window": 2^32 + 1 used to run as window 1).  2^64 - 1 is not a
    // double, so the 64-bit fields are checked at the largest double
    // below 2^64.
    const std::string u32_max = "4294967295";
    const std::string u32_over = "4294967296";
    const std::string i32_max = "2147483647";
    const std::string i32_over = "2147483648";
    const std::string u64_max = "18446744073709549568";
    const std::string u64_over = "18446744073709551616";
    auto run = [](const std::string &top) {
        return "{\"schema_version\": 1, \"platform\": \"skl\", "
               "\"workload\": \"isx\", " + top + "}";
    };
    auto search = [](const std::string &top) {
        return "{\"schema_version\": 2, \"kind\": \"search\", "
               "\"platform\": \"skl\", \"workload\": \"isx\", "
               "\"axes\": [\"l2_mshrs=8,16\"], " + top + "}";
    };
    auto spec = [](const std::string &spec_field,
                   const std::string &stream_field) {
        return "{\"schema_version\": 1, \"platform\": \"skl\", "
               "\"spec\": {\"streams\": [{\"kind\": \"strided\"" +
               (stream_field.empty() ? "" : ", " + stream_field) + "}]" +
               (spec_field.empty() ? "" : ", " + spec_field) + "}}";
    };
    auto parse = [](const std::string &line) {
        util::Result<RunRequest> r = parseRunRequest(line, 1);
        EXPECT_TRUE(r.ok()) << line << ": " << r.status().toString();
        return r.ok() ? r.take() : RunRequest();
    };
    EXPECT_EQ(parse(run("\"cores\": " + i32_max)).cores, 2147483647);
    EXPECT_EQ(parse(run("\"seed\": " + u64_max)).seed,
              18446744073709549568ull);
    EXPECT_EQ(parse(search("\"max_candidates\": " + u64_max))
                  .search.maxCandidates,
              18446744073709549568ull);
    EXPECT_EQ(parse(spec("\"window\": " + u32_max, "")).spec.window,
              4294967295u);
    EXPECT_EQ(parse(spec("\"sw_prefetch_distance\": " + u32_max, ""))
                  .spec.swPrefetchDistance,
              4294967295u);
    EXPECT_EQ(parse(spec("", "\"footprint_lines\": " + u64_max))
                  .spec.streams[0]
                  .footprintLines,
              18446744073709549568ull);
    EXPECT_EQ(parse(spec("", "\"reuse_window\": " + u32_max))
                  .spec.streams[0]
                  .reuseWindow,
              4294967295u);
    EXPECT_EQ(parse(spec("", "\"stride_lines\": " + i32_max))
                  .spec.streams[0]
                  .strideLines,
              2147483647);
    EXPECT_EQ(parse(spec("", "\"stride_lines\": -2147483648"))
                  .spec.streams[0]
                  .strideLines,
              -2147483647 - 1);

    const std::pair<std::string, const char *> rejected[] = {
        {run("\"cores\": " + i32_over), "\"cores\""},
        {run("\"cores\": 1e12"), "\"cores\""},
        {run("\"cores\": -1"), "\"cores\""},
        {run("\"seed\": " + u64_over), "\"seed\""},
        {run("\"seed\": 1e30"), "\"seed\""},
        {run("\"seed\": 1.5"), "\"seed\""},
        {search("\"max_candidates\": " + u64_over), "\"max_candidates\""},
        {spec("\"window\": " + u32_over, ""), "\"window\""},
        {spec("\"window\": 4294967297", ""), "\"window\""},
        {spec("\"sw_prefetch_distance\": " + u32_over, ""),
         "\"sw_prefetch_distance\""},
        {spec("", "\"footprint_lines\": " + u64_over),
         "\"footprint_lines\""},
        {spec("", "\"reuse_window\": " + u32_over), "\"reuse_window\""},
        {spec("", "\"stride_lines\": " + i32_over), "\"stride_lines\""},
        {spec("", "\"stride_lines\": -2147483649"), "\"stride_lines\""},
    };
    for (const auto &[line, field] : rejected) {
        util::Result<RunRequest> r = parseRunRequest(line, 1);
        ASSERT_FALSE(r.ok()) << line;
        EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument) << line;
        EXPECT_NE(r.status().message().find(field), std::string::npos)
            << line << ": " << r.status().toString();
    }
}

TEST(ParseRunRequest, V1LinesDoNotSpeakV2Fields)
{
    // A v1 line must behave exactly as on a v1-only build: the v2
    // vocabulary is an unknown field to it, not a silent no-op.
    for (const char *line :
         {"{\"schema_version\": 1, \"kind\": \"run\", \"platform\": "
          "\"skl\", \"workload\": \"isx\"}",
          "{\"schema_version\": 1, \"platform\": \"skl\", "
          "\"workload\": \"isx\", \"axes\": [\"l2_mshrs=8,16\"]}"}) {
        util::Result<RunRequest> r = parseRunRequest(line, 2);
        ASSERT_FALSE(r.ok()) << line;
        EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument)
            << line;
        EXPECT_NE(r.status().toString().find("unknown request field"),
                  std::string::npos)
            << r.status().toString();
    }
}

TEST(RunService, ResponsesComeBackInRequestOrder)
{
    warmProfileCache();
    core::ResultCache cache;
    obs::MetricRegistry registry;
    RunService::Params params;
    params.jobs = 2;
    params.cache = &cache;
    params.registry = &registry;
    RunService svc(params);

    // Mixed batch: two duplicates, one distinct, one unknown platform,
    // one unparseable, one infeasible variant, and a blank line.
    const std::vector<std::string> lines = {
        quickRequest("a", "isx"),
        "",
        quickRequest("b", "hpcg"),
        "{\"schema_version\": 1, \"id\": \"c\", \"platform\": "
        "\"nope\", \"workload\": \"isx\"}",
        quickRequest("d", "isx"), // duplicate of "a"
        "this is not json",
        quickRequest("e", "isx",
                     ", \"opts\": [\"4-ht\"]"), // skl is 2-way max
    };

    const uint64_t sims_before = simulateSpanCount();
    std::vector<RunResponse> rs = svc.serveLines(lines);
    const uint64_t sims_after = simulateSpanCount();

    // Blank line skipped; order preserved; ids echoed (line number for
    // the unparseable line — it is line 6 of the batch).
    ASSERT_EQ(rs.size(), 6u);
    EXPECT_EQ(rs[0].id, "a");
    EXPECT_EQ(rs[1].id, "b");
    EXPECT_EQ(rs[2].id, "c");
    EXPECT_EQ(rs[3].id, "d");
    EXPECT_EQ(rs[4].id, "#6");
    EXPECT_EQ(rs[5].id, "e");

    EXPECT_TRUE(rs[0].status.ok()) << rs[0].status.toString();
    EXPECT_TRUE(rs[1].status.ok()) << rs[1].status.toString();
    EXPECT_EQ(rs[2].status.code(), ErrorCode::NotFound);
    EXPECT_TRUE(rs[3].status.ok()) << rs[3].status.toString();
    EXPECT_EQ(rs[4].status.code(), ErrorCode::CorruptData);
    EXPECT_FALSE(rs[5].status.ok()); // infeasible smt pre-checked

    // "a" and "d" coalesced onto one unit: only two distinct stages
    // simulated for the whole batch.
    EXPECT_EQ(sims_after - sims_before, 2u);
    EXPECT_DOUBLE_EQ(rs[0].metrics.throughput,
                     rs[3].metrics.throughput);
    EXPECT_EQ(rs[0].platform, "skl");
    EXPECT_EQ(rs[0].workload, "isx");

    // Telemetry: the counters tell the same story.
    EXPECT_EQ(registry.counter("service.batches_total").value(), 1u);
    EXPECT_EQ(registry.counter("service.requests_total").value(), 6u);
    EXPECT_EQ(registry.counter("service.requests_failed_total").value(),
              3u);
    EXPECT_EQ(registry.counter("service.units_total").value(), 2u);
    EXPECT_EQ(
        registry.counter("service.coalesced_requests_total").value(),
        1u);
    EXPECT_EQ(registry.counter("service.cache_misses_total").value(),
              2u);
    EXPECT_EQ(registry.counter("service.cache_hits_total").value(), 0u);
}

TEST(RunService, WarmRerunServesEntirelyFromCacheByteIdentically)
{
    warmProfileCache();
    core::ResultCache cache;
    RunService::Params params;
    params.cache = &cache;
    RunService svc(params);

    const std::vector<std::string> lines = {
        quickRequest("x", "isx"),
        quickRequest("y", "hpcg"),
    };

    std::vector<RunResponse> cold = svc.serveLines(lines);
    const uint64_t sims_cold = simulateSpanCount();
    std::vector<RunResponse> warm = svc.serveLines(lines);
    const uint64_t sims_warm = simulateSpanCount();

    // No further simulation, and the rendered lines match exactly.
    EXPECT_EQ(sims_cold, sims_warm);
    ASSERT_EQ(cold.size(), warm.size());
    for (size_t i = 0; i < cold.size(); ++i) {
        ASSERT_TRUE(cold[i].status.ok()) << cold[i].status.toString();
        EXPECT_EQ(renderRunResponse(cold[i]),
                  renderRunResponse(warm[i]));
    }
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(RunService, AnswerWithoutBlockingDeclinesWithoutATrace)
{
    warmProfileCache();
    core::ResultCache cache;
    obs::MetricRegistry registry;
    RunService::Params params;
    params.cache = &cache;
    params.registry = &registry;
    RunService svc(params);
    const std::string run = quickRequest("r", "isx", ", \"seed\": 9500");
    const std::string search =
        "{\"schema_version\": 2, \"kind\": \"search\", \"platform\": "
        "\"skl\", \"workload\": \"isx\", \"cores\": 6, "
        "\"axes\": [\"l2_mshrs=8,16\"]}";

    // A miss, a search, and a batch holding either, are declined:
    // nothing simulates, counts or records.
    const uint64_t sims = simulateSpanCount();
    EXPECT_FALSE(svc.answerWithoutBlocking({run}).has_value());
    EXPECT_FALSE(svc.answerWithoutBlocking({search}).has_value());
    EXPECT_FALSE(svc.answerWithoutBlocking({"not json", run}).has_value());
    EXPECT_EQ(simulateSpanCount(), sims);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
    EXPECT_TRUE(registry.counters().empty());
    EXPECT_TRUE(registry.histograms().empty());

    // Parse failures need nothing that blocks.
    std::optional<std::vector<RunResponse>> bad =
        svc.answerWithoutBlocking({"not json"}, 4);
    ASSERT_TRUE(bad.has_value());
    ASSERT_EQ(bad->size(), 1u);
    EXPECT_EQ(renderRunResponse(bad->front()),
              renderRunResponse(svc.serveLines({"not json"}, 4).front()));

    // Once cached, the hit is answered, counted once, byte-identical.
    const std::vector<RunResponse> cold = svc.serveLines({run});
    ASSERT_TRUE(cold[0].status.ok()) << cold[0].status.toString();
    std::optional<std::vector<RunResponse>> warm =
        svc.answerWithoutBlocking({run});
    ASSERT_TRUE(warm.has_value());
    EXPECT_EQ(renderRunResponse(warm->front()), renderRunResponse(cold[0]));
    EXPECT_EQ(simulateSpanCount(), sims + 1);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(registry.counter("service.requests_total").value(), 4u);
    EXPECT_EQ(registry.counter("service.cache_hits_total").value(), 1u);
    EXPECT_EQ(registry.counter("service.cache_misses_total").value(), 1u);
}

TEST(RunService, InlineSpecRequestsAnalyzeLikeNamedWorkloads)
{
    warmProfileCache();
    RunService svc({});

    const std::string line =
        "{\"schema_version\": 1, \"id\": \"s\", \"platform\": "
        "\"skl\", \"cores\": 6, \"warmup_us\": 5, \"measure_us\": 10, "
        "\"random_dominated\": true, \"spec\": {\"name\": \"mykern\", "
        "\"streams\": [{\"kind\": \"random\", \"footprint_lines\": "
        "4000000}]}}";
    std::vector<RunResponse> rs = svc.serveLines({line});
    ASSERT_EQ(rs.size(), 1u);
    ASSERT_TRUE(rs[0].status.ok()) << rs[0].status.toString();
    EXPECT_EQ(rs[0].workload, "mykern");
    EXPECT_GT(rs[0].metrics.analysis.bwGBs, 0.0);
    EXPECT_EQ(rs[0].metrics.analysis.accessClass,
              core::AccessClass::Random);
}

TEST(RunService, EvictionCountersSurfaceCachePressure)
{
    warmProfileCache();
    core::ResultCache cache;
    cache.setMaxEntries(1);
    obs::MetricRegistry registry;
    RunService::Params params;
    params.cache = &cache;
    params.registry = &registry;
    RunService svc(params);

    std::vector<RunResponse> rs = svc.serveLines({
        quickRequest("a", "isx"),
        quickRequest("b", "hpcg"),
    });
    ASSERT_EQ(rs.size(), 2u);
    ASSERT_TRUE(rs[0].status.ok());
    ASSERT_TRUE(rs[1].status.ok());

    // Two distinct stages through a one-entry cache: at least one
    // in-memory eviction, and the counter rode out on the registry.
    EXPECT_LE(cache.size(), 1u);
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_EQ(
        registry.counter("service.cache_evictions_total").value(),
        cache.stats().evictions);
}

TEST(RunService, ConcurrentBatchesCountOnlyTheirOwnCacheTraffic)
{
    // Two listener workers share one cache: each batch's counters must
    // hold its own lookups and evictions, so they sum to the cache's.
    warmProfileCache();
    core::ResultCache cache;
    cache.setMaxEntries(1);
    obs::MetricRegistry reg_a;
    obs::MetricRegistry reg_b;
    RunService::Params pa;
    pa.cache = &cache;
    pa.registry = &reg_a;
    RunService::Params pb = pa;
    pb.registry = &reg_b;
    std::thread ta([&] {
        RunService(pa).serveLines({quickRequest("a1", "isx"),
                                   quickRequest("a2", "hpcg"),
                                   quickRequest("a3", "isx")});
    });
    std::thread tb([&] {
        RunService(pb).serveLines(
            {quickRequest("b1", "hpcg", ", \"seed\": 8"),
             quickRequest("b2", "isx", ", \"seed\": 8"),
             quickRequest("b3", "hpcg", ", \"seed\": 8")});
    });
    ta.join();
    tb.join();

    auto sum = [&](const char *name) {
        return reg_a.counter(name).value() + reg_b.counter(name).value();
    };
    const core::ResultCache::Stats s = cache.stats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(sum("service.cache_evictions_total"), s.evictions);
    EXPECT_EQ(sum("service.cache_spill_evictions_total"),
              s.spillEvictions);
    EXPECT_EQ(sum("service.cache_hits_total"), s.hits);
    EXPECT_EQ(sum("service.cache_misses_total"), s.misses);
}

TEST(RunService, StageTimingsArePresentAndMonotonic)
{
    warmProfileCache();
    obs::MetricRegistry registry;
    RunService::Params params;
    params.jobs = 2;
    params.registry = &registry;
    RunService svc(params);

    std::vector<RunResponse> rs = svc.serveLines({
        quickRequest("a", "isx"),
        quickRequest("b", "hpcg"),
        quickRequest("c", "isx"), // coalesces with "a"
    });
    ASSERT_EQ(rs.size(), 3u);

    for (const RunResponse &r : rs) {
        ASSERT_TRUE(r.status.ok()) << r.status.toString();
        const StageTiming &t = r.timing;
        // Every stage is non-negative, simulation did real work, and
        // queue-wait can never exceed the end-to-end total.
        EXPECT_GE(t.parseNs, 0.0);
        EXPECT_GE(t.coalesceNs, 0.0);
        EXPECT_GE(t.queueWaitNs, 0.0);
        EXPECT_GT(t.simulateNs, 0.0);
        EXPECT_GE(t.respondNs, 0.0);
        EXPECT_GT(t.totalNs, 0.0);
        EXPECT_LE(t.queueWaitNs, t.totalNs);
        EXPECT_DOUBLE_EQ(t.totalNs, t.sum());
    }
    // Coalesced requests share their unit's simulate/queue-wait time.
    EXPECT_DOUBLE_EQ(rs[0].timing.simulateNs, rs[2].timing.simulateNs);

    // One latency sample per request per stage rode out on the
    // registry, and the percentile extraction is usable directly.
    const auto &hists = registry.histograms();
    ASSERT_EQ(hists.count("service.latency.total_ns"), 1u);
    ASSERT_EQ(hists.count("service.latency.queue_wait_ns"), 1u);
    const obs::Log2Histogram &total =
        hists.at("service.latency.total_ns");
    EXPECT_EQ(total.total(), 3u);
    EXPECT_GT(total.percentile(0.50), 0.0);
    EXPECT_LE(total.percentile(0.50), total.percentile(0.99));
    EXPECT_LE(hists.at("service.latency.queue_wait_ns").percentile(0.99),
              total.max());
}

TEST(RunService, V2SearchRidesTheBatchWithoutDisturbingV1)
{
    warmProfileCache();

    // Warm the candidate-profile cache first: a fresh measurement and
    // its disk round-trip differ in the last ulp, and this test
    // compares rendered bytes across runs.
    search::SearchSpec spec;
    spec.platformName = "skl";
    spec.workloadName = "isx";
    spec.axes.push_back(search::parseAxis("l2_mshrs=8,16").take());
    spec.cores = 6;
    spec.warmupUs = 5;
    spec.measureUs = 10;
    {
        core::ResultCache warm_cache;
        ASSERT_TRUE(search::Searcher({1, &warm_cache, nullptr})
                        .run(spec)
                        .ok());
    }

    core::ResultCache cache;
    RunService::Params params;
    params.cache = &cache;
    RunService svc(params);

    const std::string search_line =
        "{\"schema_version\": 2, \"kind\": \"search\", \"id\": "
        "\"s\", \"platform\": \"skl\", \"workload\": \"isx\", "
        "\"cores\": 6, \"warmup_us\": 5, \"measure_us\": 10, "
        "\"axes\": [\"l2_mshrs=8,16\"]}";
    const std::string bad_kind_line =
        "{\"schema_version\": 2, \"kind\": \"teleport\", \"id\": "
        "\"t\", \"platform\": \"skl\", \"workload\": \"isx\"}";
    const std::string v2_run_line =
        "{\"schema_version\": 2, \"kind\": \"run\", \"id\": \"a\", "
        "\"platform\": \"skl\", \"workload\": \"isx\", \"cores\": 6, "
        "\"warmup_us\": 5, \"measure_us\": 10}";

    std::vector<RunResponse> rs = svc.serveLines({
        quickRequest("a", "isx"),
        search_line,
        bad_kind_line,
        v2_run_line,
    });
    ASSERT_EQ(rs.size(), 4u);

    // The bad kind failed alone; everything around it is fine.
    EXPECT_TRUE(rs[0].status.ok()) << rs[0].status.toString();
    EXPECT_TRUE(rs[1].status.ok()) << rs[1].status.toString();
    EXPECT_EQ(rs[2].status.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(rs[2].status.toString().find("unknown request kind"),
              std::string::npos);
    EXPECT_TRUE(rs[3].status.ok()) << rs[3].status.toString();

    // Responses echo the version their request spoke, and a v2
    // kind:"run" answer is the v1 answer modulo that echo.
    const std::string v1_line = renderRunResponse(rs[0]);
    const std::string v2_line = renderRunResponse(rs[3]);
    EXPECT_EQ(v1_line.find("{\"schema_version\": 1, \"id\": \"a\""),
              0u)
        << v1_line;
    EXPECT_EQ(v2_line.find("{\"schema_version\": 2, \"id\": \"a\""),
              0u)
        << v2_line;
    EXPECT_EQ(v1_line.substr(v1_line.find("\"status\"")),
              v2_line.substr(v2_line.find("\"status\"")));

    // The search answer's data is the same frontier a direct Searcher
    // run of the identical spec produces.
    ASSERT_TRUE(rs[1].isSearch);
    core::ResultCache direct_cache;
    util::Result<search::SearchResult> direct =
        search::Searcher({1, &direct_cache, nullptr}).run(spec);
    ASSERT_TRUE(direct.ok()) << direct.status().toString();
    EXPECT_EQ(search::searchDataJson(rs[1].search, false),
              search::searchDataJson(*direct, false));
    const std::string rendered = renderRunResponse(rs[1]);
    EXPECT_NE(rendered.find("\"frontier\": ["), std::string::npos)
        << rendered;
    EXPECT_NE(rendered.find("\"pruned_analytic\": "),
              std::string::npos)
        << rendered;
    EXPECT_EQ(rendered.find('\n'), std::string::npos) << rendered;
}

TEST(RenderRunResponse, TimingRenderedOnlyOnRequest)
{
    RunResponse r;
    r.id = "t";
    r.timing.parseNs = 1.0;
    r.timing.simulateNs = 5.0;
    r.timing.totalNs = r.timing.sum();

    // Default rendering must not mention timing at all: the serve
    // cold/warm byte-identity contract compares default renderings,
    // and wall-clock values would differ between the runs.
    const std::string plain = renderRunResponse(r);
    EXPECT_EQ(plain.find("timing"), std::string::npos) << plain;

    const std::string timed = renderRunResponse(r, true);
    EXPECT_NE(timed.find("\"timing\""), std::string::npos) << timed;
    EXPECT_NE(timed.find("\"parse_ns\": 1"), std::string::npos) << timed;
    EXPECT_NE(timed.find("\"queue_wait_ns\": 0"), std::string::npos)
        << timed;
    EXPECT_NE(timed.find("\"total_ns\": 6"), std::string::npos) << timed;
    EXPECT_EQ(timed.find('\n'), std::string::npos) << timed;
}

TEST(RenderRunResponse, FailedRequestsCarryNullDataAndExitCode)
{
    RunResponse r;
    r.id = "bad";
    r.status = util::Status::error(ErrorCode::NotFound,
                                   "unknown platform 'zzz'");
    const std::string line = renderRunResponse(r);
    EXPECT_NE(line.find("\"id\": \"bad\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"code\": \"not-found\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"exit\": 3"), std::string::npos) << line;
    EXPECT_NE(line.find("\"data\": null"), std::string::npos) << line;
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
}

} // namespace
} // namespace lll::service
