/**
 * @file
 * The source auditor audited: lexer model, each LLL-SRC-1xx check on
 * the seeded-bad fixture tree (tests/golden/audit_tree), golden text
 * and JSON reports, and the self-test that the *actual* repo is clean.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.hh"
#include "audit/source_model.hh"

using namespace lll;
using audit::AuditConfig;
using audit::AuditReport;
using audit::Token;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The injected tables the fixture tree is audited against. */
AuditConfig
fixtureConfig()
{
    AuditConfig config;
    config.root = std::string(LLL_TEST_GOLDEN_DIR) + "/audit_tree";
    // `beta` declares no deps, so its include of alpha/ is the seeded
    // LLL-SRC-101; `gamma` is deliberately absent (LLL-SRC-103).
    config.layers = {{"alpha", {}}, {"beta", {}}};
    config.registeredNames = {"svc.requests_total"};
    config.diagIds = {{"LLL-TST-001", "reserved: test-only diagnostic"}};
    return config;
}

std::vector<std::string>
idsOf(const AuditReport &report)
{
    std::vector<std::string> ids;
    for (const util::Diagnostic &d : report.diagnostics.all())
        ids.push_back(d.id);
    return ids;
}

TEST(LexerTest, StripsCommentsKeepsStringsAndLines)
{
    const std::vector<Token> toks = audit::lexTokens(
        "// a \"comment\"\n/* multi\nline */ id \"lit\" 42 ::x\n");
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_TRUE(toks[0].isIdent("id"));
    EXPECT_EQ(toks[0].line, 3);
    EXPECT_EQ(toks[1].kind, Token::Kind::String);
    EXPECT_EQ(toks[1].text, "lit");
    EXPECT_EQ(toks[2].kind, Token::Kind::Number);
    EXPECT_TRUE(toks[3].isPunct("::"));
    EXPECT_TRUE(toks[4].isIdent("x"));
}

TEST(LexerTest, RawStringsAndEscapes)
{
    const std::vector<Token> toks =
        audit::lexTokens("R\"(a \"b\" c)\" \"x\\\"y\"");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].text, "a \"b\" c");
    EXPECT_EQ(toks[1].text, "x\\\"y");
}

TEST(LexerTest, UnterminatedStringDegradesGracefully)
{
    const std::vector<Token> toks =
        audit::lexTokens("\"open\nnext_line");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, Token::Kind::String);
    EXPECT_TRUE(toks[1].isIdent("next_line"));
}

TEST(LexerTest, ScanIncludes)
{
    const auto incs = audit::scanIncludes(
        "#include \"a/b.hh\"\n  #  include <vector>\n#include x\n");
    ASSERT_EQ(incs.size(), 2u);
    EXPECT_EQ(incs[0].path, "a/b.hh");
    EXPECT_FALSE(incs[0].angled);
    EXPECT_EQ(incs[0].line, 1);
    EXPECT_EQ(incs[1].path, "vector");
    EXPECT_TRUE(incs[1].angled);
}

TEST(AuditTest, FixtureTreeFiresEveryFileLevelCheck)
{
    util::Result<AuditReport> report = audit::runAudit(fixtureConfig());
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_FALSE(report->clean());

    const std::vector<std::string> all = idsOf(*report);
    const std::set<std::string> ids(all.begin(), all.end());
    for (const char *want :
         {"LLL-SRC-101", "LLL-SRC-103", "LLL-SRC-110", "LLL-SRC-111",
          "LLL-SRC-120", "LLL-SRC-121", "LLL-SRC-122", "LLL-SRC-123",
          "LLL-SRC-124"}) {
        EXPECT_TRUE(ids.count(want)) << "missing " << want;
    }
    // Fixture stats double as a lexer regression net.
    EXPECT_EQ(report->stats.files, 3u);
    EXPECT_EQ(report->stats.modules, 2u);
    EXPECT_EQ(report->stats.nameLiterals, 1u);
    EXPECT_EQ(report->stats.idLiterals, 1u);
    EXPECT_EQ(report->stats.declarations, 2u);
}

TEST(AuditTest, GoldenTextReport)
{
    util::Result<AuditReport> report = audit::runAudit(fixtureConfig());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->renderText(),
              readFile(std::string(LLL_TEST_GOLDEN_DIR) +
                       "/audit_tree.txt"));
}

TEST(AuditTest, GoldenJsonReport)
{
    util::Result<AuditReport> report = audit::runAudit(fixtureConfig());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->renderJson(),
              readFile(std::string(LLL_TEST_GOLDEN_DIR) +
                       "/audit_tree.json"));
}

TEST(AuditTest, GoldenFixPlan)
{
    util::Result<AuditReport> report = audit::runAudit(fixtureConfig());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->renderFixPlan(),
              readFile(std::string(LLL_TEST_GOLDEN_DIR) +
                       "/audit_tree_fixplan.txt"));
}

TEST(AuditTest, LayerTableCycleIsReported)
{
    AuditReport report;
    audit::checkLayering({}, {{"a", {"b"}}, {"b", {"a"}}}, report);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics.all()[0].id, "LLL-SRC-102");
}

TEST(AuditTest, ConflictingDiagIdRegistrationIsReported)
{
    AuditConfig config;
    config.diagIds = {{"LLL-TST-001", "one meaning"},
                      {"LLL-TST-001", "another meaning"}};
    AuditReport report;
    audit::checkNameRegistry({}, config, report);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics.all()[0].id, "LLL-SRC-112");
}

TEST(AuditTest, DuplicateDiagIdWithSameMeaningIsFine)
{
    AuditConfig config;
    config.diagIds = {{"LLL-TST-001", "same"}, {"LLL-TST-001", "same"}};
    AuditReport report;
    audit::checkNameRegistry({}, config, report);
    EXPECT_TRUE(report.clean());
}

TEST(AuditTest, JsonMemberLiteralsOutsideTheWriterAreReported)
{
    auto findings = [](const std::string &rel, const std::string &module,
                       const std::string &text) {
        audit::SourceFile f;
        f.relPath = rel;
        f.module = module;
        f.tokens = audit::lexTokens(text);
        AuditReport report;
        audit::checkApiHygiene({f}, report);
        return idsOf(report);
    };
    const std::vector<std::string> one{"LLL-SRC-123"};
    EXPECT_EQ(findings("src/a/a.cc", "a", "f(\"{\\\"k\\\": 1}\");"), one);
    EXPECT_EQ(findings("src/a/a.cc", "a", "f(R\"({\"k.v\": 1})\");"), one);
    EXPECT_TRUE(findings("src/a/a.cc", "a", "f(\"\\\"k\\\" = 1\");").empty());
    EXPECT_TRUE(
        findings("src/util/json.cc", "util", "f(\"\\\"k\\\": \");").empty());
    // A truncated frame in the fault injector is exempt; a whole
    // document there is not.
    EXPECT_TRUE(findings("src/faultinject/n.cc", "faultinject",
                         "f(\"{\\\"k\\\":\");")
                    .empty());
    EXPECT_EQ(findings("src/faultinject/n.cc", "faultinject",
                       "f(\"{\\\"k\\\": 1}\");"),
              one);
}

TEST(AuditTest, FlagReadsOutsideTheFieldListsAreReported)
{
    auto findings = [](const std::string &rel, const std::string &text) {
        audit::SourceFile f;
        f.relPath = rel;
        f.module = "cli";
        f.tokens = audit::lexTokens(text);
        AuditReport report;
        audit::checkApiHygiene({f}, report);
        return idsOf(report);
    };
    const std::vector<std::string> one{"LLL-SRC-124"};
    EXPECT_EQ(findings("tools/cli/a.cc", "ap.boolFlag(\"--x\", \"\");"), one);
    EXPECT_EQ(findings("src/a/a.cc", "p->valueFlag(\"--x\", \"N\", h);"),
              one);
    EXPECT_EQ(findings("tools/cli/a.cc", "ap.stringList(\"--x\", h);"), one);
    // FlagReader itself, declarations and mere mentions are fine.
    EXPECT_TRUE(
        findings("src/util/argparse.hh", "ap_.boolFlag(flag, o.help);")
            .empty());
    EXPECT_TRUE(findings("tools/cli/a.cc",
                         "util::FlagReader flags(ap); visitFields(flags, r);")
                    .empty());
    EXPECT_TRUE(findings("src/a/a.hh", "Result<bool> boolFlag(int);").empty());
}

TEST(AuditTest, FindRepoRootWalksUp)
{
    util::Result<std::string> root =
        audit::findRepoRoot(std::string(LLL_REPO_ROOT) + "/src/util");
    ASSERT_TRUE(root.ok()) << root.status().toString();
    util::Result<std::string> direct = audit::findRepoRoot(LLL_REPO_ROOT);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*root, *direct);
}

TEST(AuditTest, MissingTreeIsAStatusNotAFinding)
{
    AuditConfig config;
    config.root = std::string(LLL_TEST_GOLDEN_DIR) + "/no_such_tree";
    util::Result<AuditReport> report = audit::runAudit(config);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), util::ErrorCode::NotFound);
}

// The teeth of the whole exercise: the repo's own tree must stay
// audit-clean under the default (checked-in) tables.  A regression
// here means a layering break, an unregistered name, or a hygiene
// slip landed in src/ or tools/.
TEST(AuditTest, ActualRepoIsClean)
{
    AuditConfig config;
    config.root = LLL_REPO_ROOT;
    util::Result<AuditReport> report = audit::runAudit(config);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report->clean()) << report->renderText();
    EXPECT_GE(report->stats.files, 100u);
    EXPECT_GE(report->stats.includes, 300u);
    EXPECT_GE(report->stats.declarations, 50u);
}

} // namespace
