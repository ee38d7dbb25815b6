/**
 * @file
 * Tests for the per-record field lists (util/fields.hh): every field of
 * every list must survive each codec that walks it.  The records are
 * filled by walking their own lists, so a field added to a list is
 * covered here without touching this file — and fails here if a codec
 * cannot carry it.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "search/axes.hh"
#include "search/space.hh"
#include "service/service.hh"
#include "util/argparse.hh"
#include "util/fields.hh"
#include "util/json.hh"

namespace lll
{
namespace
{

using util::FieldOpts;

/** Sets every visited field to a value distinct from its default and
 *  from every other field's (within the entry's range). */
struct Distinct
{
    int n = 0;

    template <class T>
    void
    operator()(const char *, T &&v, const FieldOpts & = {})
    {
        set(v);
    }

    template <class T>
    void
    set(T &v)
    {
        ++n;
        if constexpr (std::is_same_v<T, bool>) {
            v = !v;
        } else if constexpr (std::is_integral_v<T>) {
            v = static_cast<T>(1000 + n);
        } else if constexpr (std::is_arithmetic_v<T>) {
            v = 1000 + n + 0.25;
        } else if constexpr (std::is_same_v<T, std::string>) {
            v = "s" + std::to_string(n);
        } else if constexpr (util::NamedEnum<T>) {
            v = static_cast<T>((static_cast<size_t>(v) + 1) %
                               enumNames(v).size());
        } else if constexpr (util::IsOptional<T>) {
            v.present = true;
            set(v.value);
        } else if constexpr (util::Record<T>) {
            visitFields(*this, v);
        } else if constexpr (util::Vector<T>) {
            v.resize(2);
            for (auto &item : v)
                set(item);
        } else if constexpr (std::is_same_v<T, search::Axis>) {
            const char *axes[] = {"l1_mshrs=4,8", "pf_table=8:32:*2"};
            v = search::parseAxis(axes[n % 2]).take();
        } else if constexpr (std::is_same_v<T, search::Assignment>) {
            v = search::parsePoint("banks=" + std::to_string(n)).take();
        } else {
            v = workloads::OptSet{workloads::Opt::Vectorize,
                                  workloads::Opt::Tiling};
        }
    }
};

/** Every visited field (or only the flag fields) as "name=value"
 *  lines, doubles at %.17g. */
struct Dump
{
    std::string out;
    bool flagsOnly = false;

    template <class T>
    void
    operator()(const char *name, T &&v, const FieldOpts &o = {})
    {
        if (flagsOnly && !o.help)
            return;
        out += name;
        out += '=';
        put(v);
        out += '\n';
    }

    template <class T>
    void
    put(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out += v ? "true" : "false";
        } else if constexpr (std::is_arithmetic_v<T>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", double(v));
            out += buf;
        } else if constexpr (std::is_same_v<T, std::string>) {
            out += '"' + v + '"';
        } else if constexpr (util::NamedEnum<T>) {
            out += util::enumName(v);
        } else if constexpr (util::IsOptional<T>) {
            out += v.present ? "present:" : "absent";
            if (v.present)
                put(v.value);
        } else if constexpr (util::Record<T>) {
            out += "{\n";
            visitFields(*this, v);
            out += "}";
        } else if constexpr (util::Vector<T>) {
            out += "[";
            for (const auto &item : v) {
                put(item);
                out += ",";
            }
            out += "]";
        } else {
            put(toWire(v));
        }
    }
};

template <class R>
std::string
dump(const R &r, bool flags_only = false)
{
    Dump d{{}, flags_only};
    visitFields(d, r);
    return d.out;
}

/** Bumps the @p target-th leaf field (nested ones counted in walk
 *  order) and leaves every other field alone. */
struct PerturbOne
{
    int target;
    int index = 0;

    template <class T>
    void
    operator()(const char *, T &&v, const FieldOpts & = {})
    {
        visit(v);
    }

    template <class T>
    void
    visit(T &v)
    {
        if constexpr (util::Vector<T>) {
            for (auto &item : v)
                visitFields(*this, item);
        } else if (index++ == target) {
            Distinct bump{5000};
            bump.set(v);
        }
    }
};

TEST(FieldLists, EveryFieldChangesItsDumpWhenSet)
{
    // The premise of every round trip below: Distinct really moves
    // every field away from its default.
    core::StageMetrics m;
    const std::string before = dump(m.analysis) + dump(m.run) +
                               dump(m.profile);
    Distinct d;
    visitFields(d, m.run);
    visitFields(d, m.profile);
    visitFields(d, m.analysis);
    const std::string after = dump(m.analysis) + dump(m.run) +
                              dump(m.profile);
    std::istringstream a(before), b(after);
    for (std::string x, y; std::getline(a, x) && std::getline(b, y);)
        EXPECT_NE(x, y);
}

TEST(FieldLists, SpillCodecCarriesEveryField)
{
    core::StageMetrics m;
    Distinct d;
    visitFields(d, m.run);
    visitFields(d, m.profile);
    visitFields(d, m.analysis);
    m.label = "label";
    m.throughput = 12.5;

    const std::string text = core::stageMetricsJson(m, "key");
    util::Result<core::StageMetrics> back =
        core::parseStageMetricsJson(text, "key");
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(dump(back->run), dump(m.run));
    EXPECT_EQ(dump(back->profile), dump(m.profile));
    EXPECT_EQ(dump(back->analysis), dump(m.analysis));
}

TEST(FieldLists, SpecHashSeesEveryKernelSpecField)
{
    sim::KernelSpec spec;
    Distinct d;
    visitFields(d, spec);
    ASSERT_EQ(spec.streams.size(), 2u);
    const uint64_t base = core::hashKernelSpec(spec);

    PerturbOne count{-1};
    visitFields(count, spec);
    ASSERT_GT(count.index, 20);
    for (int i = 0; i < count.index; ++i) {
        sim::KernelSpec moved = spec;
        PerturbOne p{i};
        visitFields(p, moved);
        EXPECT_NE(dump(moved), dump(spec)) << "leaf " << i;
        EXPECT_NE(core::hashKernelSpec(moved), base) << "leaf " << i;
    }
}

/** A request line for @p stage and, for a v2 search line, @p search's
 *  own fields. */
std::string
requestLine(const core::StageRequest &stage,
            const search::SearchSpec *search)
{
    if (!search)
        return core::requestLine(stage);
    std::string line;
    util::JsonWriter w(line);
    w.beginObject().member("schema_version", 2).member("kind", "search");
    util::FieldWriter fields(w);
    visitFields(fields, stage);
    visitFields(fields, *search);
    w.end();
    return line;
}

TEST(FieldLists, RequestJsonCarriesEveryStageField)
{
    core::StageRequest filled;
    Distinct d;
    visitFields(d, filled);

    // Both halves of the workload/spec choice: a named workload with
    // optimizations, and an inline spec (which takes none).
    core::StageRequest named = filled;
    named.hasSpec = false;
    named.spec = sim::KernelSpec();
    named.spec.name = "inline";
    core::StageRequest inlined = filled;
    inlined.workloadName.clear();
    inlined.opts = workloads::OptSet();

    for (const core::StageRequest &want : {named, inlined}) {
        const std::string line = requestLine(want, nullptr);
        util::Result<service::RunRequest> got =
            service::parseRunRequest(line, 1);
        ASSERT_TRUE(got.ok()) << line << ": " << got.status().toString();
        EXPECT_EQ(dump(static_cast<const core::StageRequest &>(*got)),
                  dump(want))
            << line;
    }
}

TEST(FieldLists, SearchRequestCarriesTheSpaceAndEveryKnob)
{
    core::StageRequest stage;
    stage.platformName = "skl";
    stage.workloadName = "isx";
    search::SearchSpec knobs;
    Distinct d;
    visitFields(d, knobs);

    const std::string line = requestLine(stage, &knobs);
    util::Result<service::RunRequest> got =
        service::parseRunRequest(line, 1);
    ASSERT_TRUE(got.ok()) << line << ": " << got.status().toString();
    ASSERT_TRUE(got->isSearch);
    EXPECT_EQ(dump(got->search), dump(knobs));
    EXPECT_EQ(dump(static_cast<const core::StageRequest &>(got->search)),
              dump(static_cast<const core::StageRequest &>(*got)));
}

/** `--flag value` tokens for every flag field of a list. */
struct Argv
{
    std::vector<std::string> args;

    template <class T>
    void
    operator()(const char *name, T &&v, const FieldOpts &o = {})
    {
        using U = std::remove_cvref_t<T>;
        if (!o.help)
            return;
        std::string flag = o.flag ? o.flag : "--" + std::string(name);
        for (char &c : flag)
            c = c == '_' ? '-' : c;
        if constexpr (std::is_same_v<U, bool>) {
            args.push_back(flag);
        } else if constexpr (util::Vector<U>) {
            for (const auto &item : v)
                args.insert(args.end(), {flag, toWire(item)});
        } else {
            Dump d;
            d.put(v);
            args.insert(args.end(), {flag, d.out});
        }
    }
};

TEST(FieldLists, CommandLineCarriesEveryFlagField)
{
    search::SearchSpec want;
    Distinct d;
    visitFields(d, static_cast<core::StageRequest &>(want));
    visitFields(d, want);
    Argv argv;
    visitFields(argv, static_cast<const core::StageRequest &>(want));
    visitFields(argv, want);
    ASSERT_EQ(argv.args.size(), 4u * 2 + 2 * 2 + 1 + (2 + 2) * 2);

    util::ArgParser ap(argv.args);
    search::SearchSpec got;
    util::FlagReader flags(ap);
    visitFields(flags, static_cast<core::StageRequest &>(got));
    visitFields(flags, got);
    ASSERT_TRUE(flags.status().ok()) << flags.status().toString();
    EXPECT_TRUE(ap.finish().ok());
    EXPECT_EQ(dump(got, true), dump(want, true));
    EXPECT_EQ(dump(static_cast<const core::StageRequest &>(got), true),
              dump(static_cast<const core::StageRequest &>(want), true));
}

TEST(FieldLists, CommandLineAndJsonShareOneRangePerField)
{
    // A value out of a field's range fails in both front ends, each
    // naming the same range.
    const std::pair<const char *, const char *> cases[] = {
        {"cores", "-1"},
        {"seed", "-1"},
        {"warmup_us", "-5"},
        {"measure_us", "-0.5"},
    };
    for (const auto &[field, value] : cases) {
        std::string flag = "--" + std::string(field);
        for (char &c : flag)
            c = c == '_' ? '-' : c;
        util::ArgParser ap(std::vector<std::string>{flag, value});
        core::StageRequest r;
        util::FlagReader flags(ap);
        visitFields(flags, r);
        ASSERT_FALSE(flags.status().ok()) << field;

        util::Result<service::RunRequest> json = service::parseRunRequest(
            std::string("{\"schema_version\": 1, \"platform\": \"skl\", "
                        "\"workload\": \"isx\", \"") +
                field + "\": " + value + "}",
            1);
        ASSERT_FALSE(json.ok()) << field;
        const std::string cli_msg = flags.status().message();
        const std::string json_msg = json.status().message();
        const std::string range =
            cli_msg.substr(cli_msg.find(" wants ") + 7,
                           cli_msg.find(", got") - cli_msg.find(" wants ") -
                               7);
        EXPECT_NE(json_msg.find(range), std::string::npos)
            << cli_msg << " vs " << json_msg;
    }
}

} // namespace
} // namespace lll
