/**
 * @file
 * Tests for the util module: logging, RNG, statistics, table rendering.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "service/service.hh"
#include "util/argparse.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace lll
{
namespace
{

// --- logging ------------------------------------------------------------

std::vector<std::pair<LogLevel, std::string>> g_captured;

void
captureSink(LogLevel level, const std::string &msg)
{
    g_captured.emplace_back(level, msg);
}

class LoggingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        g_captured.clear();
        setLogSink(captureSink);
    }

    void TearDown() override { setLogSink(nullptr); }
};

TEST_F(LoggingTest, WarnGoesThroughSink)
{
    lll_warn("something odd: %d", 42);
    ASSERT_EQ(g_captured.size(), 1u);
    EXPECT_EQ(g_captured[0].first, LogLevel::Warn);
    EXPECT_EQ(g_captured[0].second, "something odd: 42");
}

TEST_F(LoggingTest, InformGoesThroughSink)
{
    lll_inform("status %s", "ok");
    ASSERT_EQ(g_captured.size(), 1u);
    EXPECT_EQ(g_captured[0].first, LogLevel::Inform);
    EXPECT_EQ(g_captured[0].second, "status ok");
}

TEST_F(LoggingTest, WarnCountIncrements)
{
    unsigned long before = warnCount();
    lll_warn("one");
    lll_warn("two");
    EXPECT_EQ(warnCount(), before + 2);
}

TEST_F(LoggingTest, FormatHandlesLongStrings)
{
    std::string big(300, 'x');
    lll_warn("%s", big.c_str());
    ASSERT_EQ(g_captured.size(), 1u);
    EXPECT_EQ(g_captured[0].second.size(), 300u);
}

TEST(LoggingDeathTest, AssertFiresOnFalse)
{
    EXPECT_DEATH({ lll_assert(1 == 2, "impossible %d", 7); },
                 "assertion");
}

TEST(LoggingDeathTest, FatalExitsWithOne)
{
    EXPECT_EXIT({ lll_fatal("user error"); },
                ::testing::ExitedWithCode(1), "user error");
}

// --- rng ----------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(RngTest, DifferentStreamsDiffer)
{
    Rng a(1, 10), b(1, 11);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(RngTest, BelowRespectsBound)
{
    Rng r(7);
    for (uint32_t bound : {1u, 2u, 10u, 1000u}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(RngTest, BelowZeroIsZero)
{
    Rng r(7);
    EXPECT_EQ(r.below(0), 0u);
    EXPECT_EQ(r.below64(0), 0u);
}

TEST(RngTest, Below64RespectsBound)
{
    Rng r(9);
    uint64_t bound = 1ULL << 40;
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(r.below64(bound), bound);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BelowIsRoughlyUniform)
{
    Rng r(13);
    std::vector<int> buckets(10, 0);
    for (int i = 0; i < 10000; ++i)
        ++buckets[r.below(10)];
    for (int c : buckets)
        EXPECT_NEAR(c, 1000, 150);
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits, 3000, 200);
}

// --- stats --------------------------------------------------------------

TEST(TickTest, NsRoundTrip)
{
    EXPECT_EQ(nsToTicks(1.0), 1000u);
    EXPECT_EQ(nsToTicks(0.5), 500u);
    EXPECT_DOUBLE_EQ(ticksToNs(2500), 2.5);
}

TEST(CounterTest, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(AverageTest, MeanMinMax)
{
    Average a;
    a.sample(1.0);
    a.sample(3.0);
    a.sample(5.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(AverageTest, EmptyIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(TimeWeightedStatTest, ConstantLevel)
{
    TimeWeightedStat s;
    s.set(0, 4.0);
    EXPECT_DOUBLE_EQ(s.mean(0, 100), 4.0);
}

TEST(TimeWeightedStatTest, StepFunction)
{
    TimeWeightedStat s;
    s.set(0, 0.0);
    s.set(50, 10.0);       // 0 for 50 ticks, 10 for 50 ticks
    EXPECT_DOUBLE_EQ(s.mean(0, 100), 5.0);
}

TEST(TimeWeightedStatTest, AddDelta)
{
    TimeWeightedStat s;
    s.add(0, 2.0);
    s.add(10, 3.0);        // 2 for 10 ticks, 5 for 10 ticks
    EXPECT_DOUBLE_EQ(s.mean(0, 20), 3.5);
    EXPECT_DOUBLE_EQ(s.current(), 5.0);
}

TEST(TimeWeightedStatTest, ResetKeepsLevel)
{
    TimeWeightedStat s;
    s.set(0, 8.0);
    s.reset(100);
    EXPECT_DOUBLE_EQ(s.mean(100, 200), 8.0);
    EXPECT_DOUBLE_EQ(s.current(), 8.0);
}

TEST(TimeWeightedStatTest, MaxTracksPeak)
{
    TimeWeightedStat s;
    s.set(0, 1.0);
    s.set(5, 9.0);
    s.set(10, 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    s.reset(20);
    EXPECT_DOUBLE_EQ(s.max(), 2.0);   // reset max to current level
}

TEST(HistogramTest, MeanAndTotal)
{
    Histogram h(10.0, 16);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(25.0);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(HistogramTest, PercentileBucketResolution)
{
    Histogram h(1.0, 128);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i));
    double p50 = h.percentile(0.5);
    EXPECT_NEAR(p50, 50.0, 2.0);
    double p90 = h.percentile(0.9);
    EXPECT_NEAR(p90, 90.0, 2.0);
}

TEST(HistogramTest, OverflowGoesToLastBucket)
{
    Histogram h(1.0, 4);
    h.sample(1000.0);
    EXPECT_EQ(h.total(), 1u);
    EXPECT_NEAR(h.percentile(1.0), 3.5, 0.6);
}

// --- table --------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns)
{
    Table t({"a", "bbbb"});
    t.addRow({"xx", "y"});
    std::string out = t.render();
    EXPECT_NE(out.find("| a  | bbbb |"), std::string::npos);
    EXPECT_NE(out.find("| xx | y    |"), std::string::npos);
}

TEST(TableTest, CaptionOnTop)
{
    Table t({"c"});
    t.setCaption("hello");
    EXPECT_EQ(t.render().rfind("hello\n", 0), 0u);
}

TEST(TableTest, SeparatorAddsRule)
{
    Table t({"c"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    std::string out = t.render();
    // header rule + top + separator + bottom = 4 rules
    size_t rules = 0, pos = 0;
    while ((pos = out.find("+--", pos)) != std::string::npos) {
        ++rules;
        pos += 3;
    }
    EXPECT_EQ(rules, 4u);
}

TEST(TableTest, TrailingSeparatorMergesIntoClosingRule)
{
    // Group-per-platform tables end every group with a separator; the
    // last one must not print a second closing rule.
    Table t({"c"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    t.addSeparator();
    EXPECT_EQ(t.render(), "+---+\n"
                          "| c |\n"
                          "+---+\n"
                          "| 1 |\n"
                          "+---+\n"
                          "| 2 |\n"
                          "+---+\n");
}

TEST(TableDeathTest, WrongArityPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(FmtTest, Double)
{
    EXPECT_EQ(fmtDouble(1.2345, 2), "1.23");
    EXPECT_EQ(fmtDouble(1.0, 0), "1");
}

TEST(FmtTest, BwPct)
{
    EXPECT_EQ(fmtBwPct(106.9, 128.0), "106.9 (84%)");
}

TEST(FmtTest, Speedup)
{
    EXPECT_EQ(fmtSpeedup(1.4), "1.40x");
}


// --- argparse -----------------------------------------------------------

/** One field of every shape FlagReader reads off the command line. */
struct FlagProbe
{
    std::string json;
    int jobs = 1;
    int cores = 0;
    uint64_t budget = 11;
    bool verbose = false;
};

template <class V, util::RecordOf<FlagProbe> R>
void
visitFields(V &v, R &r)
{
    v("json", r.json, {.help = ""});
    v("jobs", r.jobs, {.lo = 1, .help = ""});
    v("cores", r.cores, {.lo = 1, .help = ""});
    v("spill_budget", r.budget, {.help = ""});
    v("verbose", r.verbose, {.help = ""});
}

/** Reads @p probe's flags off @p ap: the first problem, if any. */
util::Status
readFlags(util::ArgParser &ap, FlagProbe &probe)
{
    util::FlagReader flags(ap);
    visitFields(flags, probe);
    return flags.status();
}

TEST(ArgParserTest, ExtractsFlagsInAnyOrderLeavingPositionals)
{
    util::ArgParser ap({"isx", "--jobs", "4", "skl", "--json", "out",
                        "vect", "--cores", "8", "--verbose"});
    FlagProbe probe;
    ASSERT_TRUE(readFlags(ap, probe).ok());
    EXPECT_EQ(probe.json, "out");
    EXPECT_EQ(probe.jobs, 4);
    EXPECT_EQ(probe.cores, 8);
    EXPECT_TRUE(probe.verbose);
    ASSERT_EQ(ap.rest().size(), 3u);
    EXPECT_EQ(ap.rest()[0], "isx");
    EXPECT_EQ(ap.rest()[1], "skl");
    EXPECT_EQ(ap.rest()[2], "vect");
    ap.consumePositional(3);
    EXPECT_TRUE(ap.finish().ok());
}

TEST(ArgParserTest, AbsentFlagsFallBack)
{
    util::ArgParser ap({});
    FlagProbe probe;
    ASSERT_TRUE(readFlags(ap, probe).ok());
    EXPECT_TRUE(probe.json.empty());
    EXPECT_EQ(probe.jobs, 1);
    EXPECT_EQ(probe.budget, 11u);
    EXPECT_FALSE(probe.verbose);
    EXPECT_TRUE(ap.finish().ok());
}

TEST(ArgParserTest, MissingValueRepeatsAndLeftoversAreUsageErrors)
{
    auto fails = [](std::vector<std::string> args, const char *needle) {
        util::ArgParser ap(std::move(args));
        FlagProbe probe;
        util::Status s = readFlags(ap, probe);
        EXPECT_EQ(s.code(), util::ErrorCode::InvalidArgument);
        EXPECT_NE(s.message().find(needle), std::string::npos)
            << s.message();
    };
    fails({"--json"}, "--json needs an argument");
    fails({"--jobs", "2", "--jobs", "3"}, "given more than once");
    fails({"--verbose", "--verbose"}, "given more than once");
    fails({"--jobs", "zero"}, "--jobs wants an integer in [1, ");
    fails({"--jobs", "0"}, "--jobs wants an integer in [1, ");
    // Values that do not fit the field's type are refused, not wrapped:
    // 2^32 + 10 would otherwise truncate to 10, and strtoull negates
    // "-1" and saturates past 2^64.
    for (const char *raw : {"4294967306", "2147483648",
                            "99999999999999999999"})
        fails({"--cores", raw}, "--cores wants an integer in [1, 2147483647]");
    for (const char *raw : {"-1", "+1", " 1", "18446744073709551616"}) {
        fails({"--spill-budget", raw},
              "--spill-budget wants an integer in [0, "
              "18446744073709551615]");
    }
    {
        util::ArgParser ap({"--spill-budget", "18446744073709551615"});
        FlagProbe probe;
        ASSERT_TRUE(readFlags(ap, probe).ok());
        EXPECT_EQ(probe.budget, UINT64_MAX);
    }
    {
        util::ArgParser ap({"--bogus"});
        util::Status s = ap.finish();
        ASSERT_FALSE(s.ok());
        EXPECT_NE(s.message().find("unknown flag '--bogus'"),
                  std::string::npos);
    }
    {
        util::ArgParser ap({"stray"});
        util::Status s = ap.finish();
        ASSERT_FALSE(s.ok());
        EXPECT_NE(s.message().find("unexpected argument 'stray'"),
                  std::string::npos);
    }
}

TEST(ArgParserTest, HelpModeRegistersFlagsWithoutReadingThem)
{
    util::ArgParser ap({"--jobs", "0", "--help"});
    FlagProbe probe;
    ASSERT_TRUE(readFlags(ap, probe).ok());
    EXPECT_TRUE(ap.helpRequested());
    EXPECT_EQ(probe.jobs, 1);
    EXPECT_EQ(ap.helpText("probe [flags]"),
              "usage: lll probe [flags]\n\nflags:\n"
              "  --json S\n  --jobs N\n  --cores N\n  --spill-budget N\n"
              "  --verbose\n");
}

// --- json parser --------------------------------------------------------

TEST(JsonParseTest, ParsesNestedDocuments)
{
    util::Result<util::JsonValue> doc = util::parseJson(
        "{\"a\": 1.5, \"b\": [true, null, \"x\\n\"], "
        "\"c\": {\"d\": -2e3}}");
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    ASSERT_TRUE(doc->isObject());
    util::Result<double> a = doc->getNumber("a");
    ASSERT_TRUE(a.ok());
    EXPECT_DOUBLE_EQ(*a, 1.5);
    const util::JsonValue *b = doc->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].isBool());
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_EQ(b->array[2].string, "x\n");
    const util::JsonValue *c = doc->find("c");
    ASSERT_NE(c, nullptr);
    util::Result<double> d = c->getNumber("d");
    ASSERT_TRUE(d.ok());
    EXPECT_DOUBLE_EQ(*d, -2000.0);
}

TEST(JsonParseTest, ErrorsCarryByteOffsets)
{
    const char *bad[] = {
        "",
        "{\"a\": }",
        "{\"a\": 1,}",
        "[1, 2",
        "\"unterminated",
        "{\"a\": 1} trailing",
        "nul",
        "{\"a\" 1}",
    };
    for (const char *text : bad) {
        util::Result<util::JsonValue> doc = util::parseJson(text);
        ASSERT_FALSE(doc.ok()) << text;
        EXPECT_EQ(doc.status().code(), util::ErrorCode::CorruptData)
            << text;
        EXPECT_NE(doc.status().message().find("byte"),
                  std::string::npos)
            << doc.status().message();
    }
}

TEST(JsonParseTest, DepthLimitIsInvalidArgumentNotOverflow)
{
    // 2000 levels would recurse the parser off the stack without the
    // depth gate; with it, the rejection is a structured
    // InvalidArgument (a policy violation, not a syntax error).
    const int levels = 2000;
    std::string deep(size_t(levels), '[');
    deep.append(size_t(levels), ']');
    util::Result<util::JsonValue> doc = util::parseJson(deep);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), util::ErrorCode::InvalidArgument);
    EXPECT_NE(doc.status().message().find("nesting"),
              std::string::npos)
        << doc.status().message();

    // The same document passes once the limit allows it.
    util::JsonLimits deep_ok;
    deep_ok.maxDepth = levels + 1;
    EXPECT_TRUE(util::parseJson(deep, deep_ok).ok());
}

TEST(JsonParseTest, DepthLimitCountsObjectsAndArrays)
{
    util::JsonLimits limits;
    limits.maxDepth = 3;
    // The root is depth 0, so object > array > object > array ends at
    // depth 3 — exactly at the limit...
    EXPECT_TRUE(util::parseJson("{\"a\": [{\"b\": []}]}", limits).ok());
    // ...one more container level breaks it.
    util::Result<util::JsonValue> doc =
        util::parseJson("{\"a\": [{\"b\": [[]]}]}", limits);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), util::ErrorCode::InvalidArgument);
}

TEST(JsonParseTest, ByteLimitRejectsBeforeParsing)
{
    util::JsonLimits limits;
    limits.maxBytes = 16;
    // Oversized *and* malformed: the size gate must fire first, so
    // the code is InvalidArgument, not CorruptData.
    const std::string big =
        "{\"a\": \"" + std::string(64, 'x') + ""; // unterminated too
    util::Result<util::JsonValue> doc = util::parseJson(big, limits);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), util::ErrorCode::InvalidArgument);
    EXPECT_NE(doc.status().message().find("bytes"), std::string::npos)
        << doc.status().message();

    // At or under the limit parses normally.
    EXPECT_TRUE(util::parseJson("{\"a\": 1}", limits).ok());

    // maxBytes 0 keeps the historical unlimited behavior.
    util::JsonLimits unlimited;
    EXPECT_TRUE(
        util::parseJson("{\"a\": \"" + std::string(64, 'x') + "\"}",
                        unlimited)
            .ok());
}

TEST(JsonParseTest, ServiceRequestLimitsAreEnforcedPerLine)
{
    // The run service's own limits: a hostile request line fails as a
    // per-request InvalidArgument instead of taking the batch down.
    std::string deep = "{\"schema_version\": 1, \"spec\": ";
    deep.append(64, '[');
    deep.append(64, ']');
    deep += "}";
    util::Result<service::RunRequest> r =
        service::parseRunRequest(deep, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::InvalidArgument);

    const std::string big(service::kMaxRequestBytes + 1, ' ');
    util::Result<service::RunRequest> r2 =
        service::parseRunRequest("{\"a\": 1}" + big, 2);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.status().code(), util::ErrorCode::InvalidArgument);
}

TEST(JsonParseTest, TypedAccessorsNameTheOffendingField)
{
    util::Result<util::JsonValue> doc =
        util::parseJson("{\"n\": \"oops\"}");
    ASSERT_TRUE(doc.ok());
    util::Result<double> n = doc->getNumber("n");
    ASSERT_FALSE(n.ok());
    EXPECT_NE(n.status().message().find("\"n\""), std::string::npos)
        << n.status().message();
    util::Result<double> missing = doc->getNumber("gone");
    ASSERT_FALSE(missing.ok());
    EXPECT_NE(missing.status().message().find("\"gone\""),
              std::string::npos)
        << missing.status().message();
    util::Result<std::string> fallback =
        doc->getStringOr("gone", "dflt");
    ASSERT_TRUE(fallback.ok());
    EXPECT_EQ(*fallback, "dflt");
}

TEST(JsonEscape, HandlesSpecials)
{
    auto escaped = [](const std::string &in) {
        std::string out;
        util::appendJsonEscaped(out, in);
        return out;
    };
    EXPECT_EQ(escaped("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
    EXPECT_EQ(escaped("plain"), "plain");
    EXPECT_EQ(escaped("\r\x01"), "\\r\\u0001");
}

using Layout = util::JsonWriter::Layout;

TEST(JsonWriter, InlineLayoutAndScalarSpellings)
{
    std::string out;
    util::JsonWriter w(out);
    w.beginObject()
        .member("s", "a\"b\\c\n")
        .member("i", -3)
        .member("u", uint64_t(18446744073709551615ull))
        .member("d", 0.1)
        .member("t", true)
        .member("nan", std::nan(""))
        .member("inf", -INFINITY)
        .key("n")
        .null()
        .key("a")
        .beginArray()
        .value(1)
        .beginArray()
        .end()
        .end()
        .key("raw")
        .raw("{\"x\": 1}")
        .end();
    EXPECT_EQ(out, "{\"s\": \"a\\\"b\\\\c\\n\", \"i\": -3, "
                   "\"u\": 18446744073709551615, "
                   "\"d\": 0.10000000000000001, \"t\": true, "
                   "\"nan\": null, \"inf\": null, \"n\": null, "
                   "\"a\": [1, []], \"raw\": {\"x\": 1}}");
}

TEST(JsonWriter, BlockIndentCountsOnlyBlockContainers)
{
    std::string out;
    util::JsonWriter w(out);
    w.beginObject(Layout::Block)
        .key("rows")
        .beginArray(Layout::Block)
        .beginObject()
        .member("k", 1)
        .key("inner")
        .beginArray(Layout::Block)
        .value("x")
        .end()
        .end()
        .end()
        .key("empty")
        .beginArray(Layout::Block)
        .end()
        .key("flat")
        .beginObject()
        .member("a", 1)
        .end()
        .end();
    EXPECT_EQ(out, "{\n"
                   "  \"rows\": [\n"
                   "    {\"k\": 1, \"inner\": [\n"
                   "      \"x\"\n"
                   "    ]}\n"
                   "  ],\n"
                   "  \"empty\": [],\n"
                   "  \"flat\": {\"a\": 1}\n"
                   "}");
}

TEST(JsonWriter, PrecisionLastsUntilItsContainerEnds)
{
    std::string out;
    util::JsonWriter w(out);
    w.beginArray()
        .value(1.0 / 3.0)
        .beginArray()
        .precision(6)
        .value(1.0 / 3.0)
        .beginArray()
        .value(2.0 / 3.0)
        .end()
        .end()
        .value(2.0 / 3.0)
        .end();
    EXPECT_EQ(out, "[0.33333333333333331, [0.333333, [0.666667]], "
                   "0.66666666666666663]");
}

TEST(JsonWriter, ParserReadsEveryDocumentBack)
{
    std::string all;
    for (int c = 1; c < 256; ++c)
        all.push_back(static_cast<char>(c));
    std::string out;
    util::JsonWriter w(out);
    w.beginObject(Layout::Block)
        .member(all, all)
        .key("v")
        .beginArray()
        .value(0x1p-1074)
        .value(DBL_MAX)
        .value(-0.0)
        .end()
        .end();
    util::Result<util::JsonValue> doc = util::parseJson(out);
    ASSERT_TRUE(doc.ok()) << doc.status().toString() << "\n" << out;
    ASSERT_EQ(doc->object.size(), 2u);
    EXPECT_EQ(doc->object[0].first, all);
    EXPECT_EQ(doc->object[0].second.string, all);
    const util::JsonValue *v = doc->find("v");
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(v->array.size(), 3u);
    EXPECT_EQ(v->array[0].number, 0x1p-1074);
    EXPECT_EQ(v->array[1].number, DBL_MAX);
}

std::string
fmtG17(double v)
{
    std::string out;
    util::appendG17(out, v);
    return out;
}

std::string
printfG17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

TEST(FmtG17, MatchesPrintfOnEdgeValues)
{
    const double edges[] = {
        0.0,
        -0.0,
        INFINITY,
        -INFINITY,
        std::nan(""),
        -std::nan(""),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        0x1.fffffffffffffp-1023, // largest subnormal
        DBL_MIN,
        -DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
        0x1p53 - 1,
        0x1p53,
        0x1p53 + 2, // 2^53 + 1 rounds to an even neighbour
        9007199254740993.0,
        0.1,
        1.0 / 3.0,
        1e16,
        1e17,
        123456789012345678.0,
        1e-5,
        1e-4,
        100.0,
        2.5,
    };
    for (double v : edges)
        EXPECT_EQ(fmtG17(v), printfG17(v)) << printfG17(v);
    // The writer's shorter spellings come from the same formatter.
    for (int digits : {6, 9}) {
        for (double v : edges) {
            if (!std::isfinite(v))
                continue;
            char want[64];
            std::snprintf(want, sizeof(want), "%.*g", digits, v);
            std::string got;
            util::JsonWriter(got).precision(digits).value(v);
            EXPECT_EQ(got, want) << digits;
        }
    }
}

TEST(FmtG17, MatchesPrintfOnRandomBitPatterns)
{
    Rng rng(20260417);
    int mismatches = 0;
    for (int i = 0; i < 200000; ++i) {
        const uint64_t bits = rng.next64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        const std::string want = printfG17(v);
        if (fmtG17(v) != want && ++mismatches <= 5)
            ADD_FAILURE() << "bits " << bits << ": want " << want;
    }
    EXPECT_EQ(mismatches, 0);
}

} // namespace
} // namespace lll
