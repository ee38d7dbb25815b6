/**
 * @file
 * API-hygiene checks (LLL-SRC-120..124): [[nodiscard]] on every
 * Status/Result-returning header declaration, banned raw
 * time/rand/exit/lll_fatal APIs, no non-test references to
 * [[deprecated]] symbols, no JSON member spelled by hand outside
 * util::JsonWriter, and no flag read outside util::FlagReader.
 */

#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "audit/audit.hh"

namespace lll::audit
{

namespace
{

std::string
at(const SourceFile &f, int line)
{
    return f.relPath + ":" + std::to_string(line);
}

bool
isQualifierKeyword(const Token &t)
{
    return t.kind == Token::Kind::Ident &&
           (t.text == "inline" || t.text == "static" ||
            t.text == "virtual" || t.text == "constexpr" ||
            t.text == "friend" || t.text == "explicit" ||
            t.text == "extern");
}

/**
 * True when the five tokens ending just before index @p i spell
 * `[[nodiscard]]` (after walking back over declaration qualifiers).
 */
bool
hasNodiscardBefore(const std::vector<Token> &toks, size_t i)
{
    while (i > 0 && isQualifierKeyword(toks[i - 1]))
        --i;
    return i >= 5 && toks[i - 1].isPunct("]") &&
           toks[i - 2].isPunct("]") && toks[i - 3].isIdent("nodiscard") &&
           toks[i - 4].isPunct("[") && toks[i - 5].isPunct("[");
}

/**
 * [[nodiscard]] on Status/Result-returning declarations in headers.
 *
 * The token shape of a candidate declaration is
 *
 *   [util:: | lll::util:: | lll::] (Status | Result<...>) name (
 *
 * `Status::error(...)` (the type used as a scope), constructor calls
 * (`Status(...)`, no name between type and paren) and mentions inside
 * template arguments (`vector<Status>`) all fail the shape and are
 * skipped, so the check has no opinion about uses — only declarations.
 */
void
checkNodiscard(const SourceFile &f, AuditReport &report)
{
    const std::vector<Token> &toks = f.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].isIdent("Status") && !toks[i].isIdent("Result"))
            continue;
        // Walk back over `util::` / `lll::` qualifiers to where an
        // attribute would sit.
        size_t start = i;
        while (start >= 2 && toks[start - 1].isPunct("::") &&
               (toks[start - 2].isIdent("util") ||
                toks[start - 2].isIdent("lll")))
            start -= 2;
        size_t j = i + 1; // first token after the return type
        if (toks[i].isIdent("Result")) {
            if (j >= toks.size() || !toks[j].isPunct("<"))
                continue;
            int depth = 0;
            while (j < toks.size()) {
                if (toks[j].isPunct("<"))
                    ++depth;
                else if (toks[j].isPunct(">") && --depth == 0) {
                    ++j;
                    break;
                }
                ++j;
            }
            if (depth != 0)
                continue;
        } else {
            // `Status::error(...)` — a scope, not a return type.
            if (j < toks.size() && toks[j].isPunct("::"))
                continue;
        }
        if (j + 1 >= toks.size() ||
            toks[j].kind != Token::Kind::Ident ||
            !toks[j + 1].isPunct("("))
            continue;
        // `using X = Status;` / `operator` oddities never reach here:
        // the shape above already requires `<type> <name> (`.
        ++report.stats.declarations;
        if (!hasNodiscardBefore(toks, start)) {
            report.add(
                {"LLL-SRC-120", util::Severity::Error,
                 at(f, toks[i].line),
                 toks[i].text + "-returning declaration '" +
                     toks[j].text + "' is missing [[nodiscard]]"},
                "add [[nodiscard]] in front of '" + toks[j].text +
                    "' so dropped " + toks[i].text +
                    "es fail the -Wunused-result build");
        }
    }
}

const std::set<std::string> kClockIdents = {
    "steady_clock", "system_clock", "high_resolution_clock"};

const std::set<std::string> kRandIdents = {
    "rand",      "srand",         "drand48",
    "rand_r",    "random_device", "mt19937",
    "mt19937_64", "default_random_engine"};

const std::set<std::string> kCallOnlyIdents = {
    "time",      "clock",    "gettimeofday", "clock_gettime",
    "localtime", "gmtime",   "exit",         "abort",
    "lll_fatal",
};

const std::set<std::string> kBannedHeaders = {"random", "ctime",
                                              "time.h"};

/**
 * Banned-API scan.  Raw clocks live only in src/obs/timer.hh (that is
 * what obs::WallClock is *for*); the rand family is banned everywhere
 * in favour of the seeded lll::Rng; time/exit/abort/lll_fatal are
 * banned as *calls* (member calls like `timer.time()` and unrelated
 * identifiers pass), with exit/abort allowed in the CLI and the
 * fatal-log path, and lll_fatal only where it is defined and in the
 * one fatal wrapper left, System::run.
 */
void
checkBannedApis(const SourceFile &f, AuditReport &report)
{
    const bool clock_home = f.relPath == "src/obs/timer.hh";
    const bool exit_home =
        f.module == "cli" || f.relPath == "src/util/logging.cc";
    const bool fatal_home = f.relPath == "src/util/logging.hh" ||
                            f.relPath == "src/sim/system.cc";

    for (const IncludeDirective &inc : f.includes) {
        if (inc.angled && kBannedHeaders.count(inc.path) != 0) {
            report.add({"LLL-SRC-121", util::Severity::Error,
                        at(f, inc.line),
                        "banned header <" + inc.path + ">"},
                       "use obs::WallClock (util/timer) or lll::Rng "
                       "(util/rng.hh) instead of <" +
                           inc.path + ">");
        }
    }

    const std::vector<Token> &toks = f.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Token::Kind::Ident)
            continue;
        const std::string &id = toks[i].text;

        if (kClockIdents.count(id) != 0 && !clock_home) {
            report.add({"LLL-SRC-121", util::Severity::Error,
                        at(f, toks[i].line),
                        "raw std::chrono::" + id +
                            " outside src/obs/timer.hh"},
                       "go through obs::WallClock / obs::WallTimer so "
                       "time stays mockable and centralized");
            continue;
        }
        if (kRandIdents.count(id) != 0) {
            report.add({"LLL-SRC-121", util::Severity::Error,
                        at(f, toks[i].line), "banned RNG API '" + id +
                                                 "' (unseeded or "
                                                 "platform-varying)"},
                       "use the seeded lll::Rng (util/rng.hh) so runs "
                       "stay reproducible");
            continue;
        }
        if (kCallOnlyIdents.count(id) != 0) {
            if ((id == "exit" || id == "abort") && exit_home)
                continue;
            if (id == "lll_fatal" && fatal_home)
                continue;
            if (i + 1 >= toks.size() || !toks[i + 1].isPunct("("))
                continue; // not a call
            if (i > 0 &&
                (toks[i - 1].isPunct(".") || toks[i - 1].isPunct(">")))
                continue; // member call: x.time(), p->exit(...)
            if (i > 0 && toks[i - 1].isPunct("::")) {
                // Only `std::time(...)`-style qualification is the
                // banned libc call; `Foo::exit(...)` is someone
                // else's method.
                if (i < 2 || !toks[i - 2].isIdent("std"))
                    continue;
            }
            report.add(
                {"LLL-SRC-121", util::Severity::Error,
                 at(f, toks[i].line), "banned call '" + id + "()'"},
                id == "exit" || id == "abort" || id == "lll_fatal"
                    ? "return a util::Status up to the CLI instead "
                      "of terminating from a library"
                    : "go through obs::WallClock so time stays "
                      "mockable and deterministic in tests");
        }
    }
}

/**
 * Hand-written JSON (LLL-SRC-123).  util::JsonWriter owns separators,
 * escaping and number spelling, so a string literal that spells a
 * member outside src/util/json.* is a second writer in the making.
 * The one exemption: src/faultinject sends deliberately truncated
 * frames, and a literal there that ends right after a member's colon
 * is such a fragment, not a document.
 */
void
checkJsonLiterals(const SourceFile &f, AuditReport &report)
{
    if (f.relPath.rfind("src/util/json.", 0) == 0)
        return;
    // `\"name\":` in a literal (escapes stay raw in the token), or
    // `"name":` in a raw string.
    static const std::regex kMember(R"(\\?"[A-Za-z0-9_.]+\\?":)");
    std::smatch m;
    for (const Token &t : f.tokens) {
        if (t.kind != Token::Kind::String ||
            !std::regex_search(t.text, m, kMember))
            continue;
        if (f.module == "faultinject" &&
            size_t(m.position(0) + m.length(0)) == t.text.size())
            continue;
        report.add({"LLL-SRC-123", util::Severity::Error, at(f, t.line),
                    "string literal spells a JSON member outside "
                    "util::JsonWriter"},
                   "write the document through util::JsonWriter so "
                   "escaping, separators and numbers have one owner");
    }
}

const std::set<std::string> kFlagAccessors = {"valueFlag", "boolFlag",
                                               "stringList"};

/**
 * Flag reads by hand (LLL-SRC-124).  A command reads its flags through
 * util::FlagReader walking its request's field list, so each flag gets
 * the JSON decoder's range check and its help line; a call to the
 * ArgParser accessors FlagReader wraps, outside src/util, is a second
 * decoder in the making.
 */
void
checkFlagReads(const SourceFile &f, AuditReport &report)
{
    if (f.relPath.rfind("src/util/", 0) == 0)
        return;
    const std::vector<Token> &toks = f.tokens;
    for (size_t i = 2; i + 1 < toks.size(); ++i) {
        // A member call: `ap.boolFlag(` or `p->boolFlag(`.
        const bool member = toks[i - 1].isPunct(".") ||
                            (toks[i - 1].isPunct(">") &&
                             toks[i - 2].isPunct("-"));
        if (!member || toks[i].kind != Token::Kind::Ident ||
            kFlagAccessors.count(toks[i].text) == 0 ||
            !toks[i + 1].isPunct("("))
            continue;
        report.add({"LLL-SRC-124", util::Severity::Error,
                    at(f, toks[i].line),
                    "flag read by hand: ArgParser::" + toks[i].text +
                        "() outside src/util"},
                   "give the command's request a field list and read it "
                   "with util::FlagReader");
    }
}

/** A symbol marked [[deprecated]] and where it lives. */
struct DeprecatedSymbol
{
    std::string name;
    std::string module;
    std::string declaredIn;
    int line = 0;
};

/**
 * Find `[[deprecated...]] <decl>` sites: skip to the attribute's
 * closing `]]`, then take the first identifier that is immediately
 * followed by `(` — the declared function — within a short window
 * (return types like `Result<std::vector<T>>` sit in between).
 */
std::vector<DeprecatedSymbol>
findDeprecated(const std::vector<SourceFile> &files)
{
    std::vector<DeprecatedSymbol> out;
    for (const SourceFile &f : files) {
        const std::vector<Token> &toks = f.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            if (!toks[i].isIdent("deprecated") || i < 2 ||
                !toks[i - 1].isPunct("[") || !toks[i - 2].isPunct("["))
                continue;
            size_t j = i + 1;
            while (j + 1 < toks.size() && !(toks[j].isPunct("]") &&
                                            toks[j + 1].isPunct("]")))
                ++j;
            j += 2; // past "]]"
            const size_t window = j + 24;
            for (; j + 1 < toks.size() && j < window; ++j) {
                if (toks[j].kind == Token::Kind::Ident &&
                    toks[j + 1].isPunct("(") &&
                    !toks[j].isIdent("decltype")) {
                    out.push_back({toks[j].text, f.module, f.relPath,
                                   toks[j].line});
                    break;
                }
            }
        }
    }
    return out;
}

/**
 * References to [[deprecated]] symbols from *other modules*
 * (LLL-SRC-122).  The declaring module keeps compiling its own
 * implementation and shims; everyone else must move to the
 * replacement.  Tests are outside the audit scan set entirely.
 */
void
checkDeprecatedRefs(const std::vector<SourceFile> &files,
                    AuditReport &report)
{
    const std::vector<DeprecatedSymbol> symbols = findDeprecated(files);
    if (symbols.empty())
        return;
    std::map<std::string, const DeprecatedSymbol *> bySymbol;
    for (const DeprecatedSymbol &s : symbols)
        bySymbol[s.name] = &s;
    for (const SourceFile &f : files) {
        for (const Token &t : f.tokens) {
            if (t.kind != Token::Kind::Ident)
                continue;
            const auto it = bySymbol.find(t.text);
            if (it == bySymbol.end() ||
                it->second->module == f.module)
                continue;
            report.add(
                {"LLL-SRC-122", util::Severity::Error, at(f, t.line),
                 "reference to [[deprecated]] symbol '" + t.text +
                     "' (declared at " + it->second->declaredIn + ")"},
                "migrate this call site off '" + t.text +
                    "' to its documented replacement");
        }
    }
}

} // namespace

void
checkApiHygiene(const std::vector<SourceFile> &files,
                AuditReport &report)
{
    for (const SourceFile &f : files) {
        if (f.header)
            checkNodiscard(f, report);
        checkBannedApis(f, report);
    }
    checkDeprecatedRefs(files, report);
    for (const SourceFile &f : files) {
        checkJsonLiterals(f, report);
        checkFlagReads(f, report);
    }
}

} // namespace lll::audit
