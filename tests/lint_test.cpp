// cglint tests: per-rule fixtures (positive hit, near-misses inside string
// literals and comments, suppressed hit, raw-string edge cases), the
// suppression grammar, layering-config validation, the cross-file semantic
// rules (W2/E1/M1/L2) with their name registries, baseline gating, SARIF
// output, and a self-hosting run over the real repository tree.
#include <chrono>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "lint/config.h"
#include "lint/lexer.h"
#include "lint/linter.h"
#include "lint/sarif.h"
#include "report/json.h"

namespace {

using cg::lint::Config;
using cg::lint::LintReport;
using cg::lint::NameRegistry;
using cg::lint::SourceFile;
using cg::lint::Token;
using cg::lint::TokenKind;

// A miniature layering universe for fixtures. webplat must not include
// crawler; report may consume analysis; jsoncore is carved out of report/;
// bench is an apps-tier module (layering findings report as L2); IoStatus
// and NavigationResult results are must-check.
constexpr std::string_view kFixtureConfig = R"cfg(
path src/report/json jsoncore
deps net:
deps jsoncore:
deps webplat: net
deps analysis: net
deps crawler: webplat analysis
deps report: analysis jsoncore
deps bench: webplat
apps bench
open tests
allow D1 under bench/
restrict D3 analysis report jsoncore store obs instrument
restrict W1 store crawler examples
mustcheck IoStatus NavigationResult
metricwrap count_metric
)cfg";

const Config& fixture_config() {
  static const Config config = [] {
    std::string error;
    auto parsed = Config::parse(kFixtureConfig, &error);
    if (!parsed) ADD_FAILURE() << "fixture config: " << error;
    return parsed.value_or(Config{});
  }();
  return config;
}

// The fixture config with small enum/metric registries attached, arming the
// cross-file rules E1 and M1.
const Config& semantic_config() {
  static const Config config = [] {
    Config with_registries = fixture_config();
    std::string error;
    auto enums = NameRegistry::parse("FailureClass\n", &error);
    if (!enums) ADD_FAILURE() << "enum registry: " << error;
    auto metrics = NameRegistry::parse("crawl.sites\nio.faults.*\n", &error);
    if (!metrics) ADD_FAILURE() << "metric registry: " << error;
    if (enums) with_registries.set_enum_registry(std::move(*enums));
    if (metrics) with_registries.set_metric_registry(std::move(*metrics));
    return with_registries;
  }();
  return config;
}

LintReport run(const std::string& path, std::string_view source) {
  return lint_source(fixture_config(), path, source);
}

LintReport run_semantic(const std::string& path, std::string_view source) {
  return lint_source(semantic_config(), path, source);
}

bool has_violation(const LintReport& report, const std::string& rule,
                   int line) {
  for (const auto& violation : report.violations) {
    if (violation.rule == rule && violation.line == line) return true;
  }
  return false;
}

// ---- lexer ---------------------------------------------------------------

TEST(LexerTest, ClassifiesCommentsStringsAndCode) {
  const auto tokens = cg::lint::lex(
      "int a; // line comment\n"
      "/* block */ const char* s = \"str\";\n");
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "int");
  int comments = 0;
  int strings = 0;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kComment) ++comments;
    if (token.kind == TokenKind::kString) ++strings;
  }
  EXPECT_EQ(comments, 2);
  EXPECT_EQ(strings, 1);
}

TEST(LexerTest, RawStringSwallowsFakeTokensAndKeepsLineNumbers) {
  const auto tokens = cg::lint::lex(
      "const char* s = R\"lit(\n"
      "  system_clock rand( std::unordered_map \"\n"
      ")lit\";\n"
      "int after;\n");
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kString) continue;
    EXPECT_NE(token.text, "system_clock");
    EXPECT_NE(token.text, "unordered_map");
    if (token.text == "after") {
      EXPECT_EQ(token.line, 4);
    }
  }
}

TEST(LexerTest, DigitSeparatorIsNotACharLiteral) {
  const auto tokens = cg::lint::lex("int x = 1'000'000; int y = 2;\n");
  // If 1'000'000 were mis-lexed, the char literal would swallow "; int y".
  bool saw_y = false;
  for (const Token& token : tokens) saw_y = saw_y || token.text == "y";
  EXPECT_TRUE(saw_y);
}

TEST(LexerTest, ParsesIncludeTargets) {
  const auto tokens = cg::lint::lex(
      "#include \"obs/trace.h\"\n#include <vector>\n");
  ASSERT_EQ(tokens.size(), 2u);
  const auto quoted = cg::lint::parse_include(tokens[0]);
  ASSERT_TRUE(quoted.has_value());
  EXPECT_EQ(quoted->path, "obs/trace.h");
  EXPECT_TRUE(quoted->quoted);
  const auto angled = cg::lint::parse_include(tokens[1]);
  ASSERT_TRUE(angled.has_value());
  EXPECT_FALSE(angled->quoted);
}

// ---- D1: wall clock ------------------------------------------------------

TEST(RuleD1Test, FlagsWallClockUse) {
  const auto report = run("src/crawler/visit.cpp",
                          "void f() {\n"
                          "  auto t = std::chrono::system_clock::now();\n"
                          "}\n");
  EXPECT_TRUE(has_violation(report, "D1", 2));
}

TEST(RuleD1Test, FlagsLibcTimeCallButNotMembersNamedTime) {
  const auto report = run("src/crawler/visit.cpp",
                          "void f(Event e) {\n"
                          "  auto a = time(nullptr);\n"
                          "  auto b = e.time;\n"
                          "  e.time(3);\n"
                          "}\n");
  EXPECT_TRUE(has_violation(report, "D1", 2));
  EXPECT_FALSE(has_violation(report, "D1", 3));
  EXPECT_FALSE(has_violation(report, "D1", 4));
}

TEST(RuleD1Test, IgnoresStringAndCommentNearMisses) {
  const auto report = run("src/crawler/visit.cpp",
                          "// system_clock would break determinism\n"
                          "const char* s = \"system_clock\";\n"
                          "/* steady_clock too */\n");
  EXPECT_TRUE(report.violations.empty());
}

TEST(RuleD1Test, SuppressionWithReasonCountsInCensus) {
  const auto report = run(
      "src/obs/wall.cpp",
      "auto t = std::chrono::steady_clock::now();  "
      "// cglint: allow(D1) — diagnostic lane\n");
  EXPECT_TRUE(report.violations.empty());
  ASSERT_EQ(report.suppressed.size(), 1u);
  EXPECT_EQ(report.suppressed[0].violation.rule, "D1");
  EXPECT_EQ(report.suppressed[0].reason, "diagnostic lane");
  EXPECT_EQ(report.suppression_census.at("D1"), 1);
}

TEST(RuleD1Test, BenchPathIsAllowlisted) {
  const auto report = run("bench/bench_x.cpp",
                          "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.suppressed.empty());  // allowlisted, not suppressed
}

// ---- D2: randomness ------------------------------------------------------

TEST(RuleD2Test, FlagsRandomDeviceAndEngines) {
  const auto report = run("src/corpus/gen.cpp",
                          "std::random_device rd;\n"
                          "std::mt19937 gen(rd());\n"
                          "int r = rand();\n");
  EXPECT_TRUE(has_violation(report, "D2", 1));
  EXPECT_TRUE(has_violation(report, "D2", 2));
  EXPECT_TRUE(has_violation(report, "D2", 3));
}

TEST(RuleD2Test, IgnoresNearMissesAndMembers) {
  const auto report = run("src/corpus/gen.cpp",
                          "// no rand() here\n"
                          "const char* s = \"std::random_device\";\n"
                          "auto v = rng.rand();\n"
                          "int operand(int x);\n");
  EXPECT_TRUE(report.violations.empty());
}

// ---- D3: unordered iteration hazard --------------------------------------

// The seeded analyzer bug: an unordered candidates map in analysis code
// (src/analysis/analyzer.cpp:206 before this PR). The rule must name the
// exact declaration line.
TEST(RuleD3Test, CatchesTheSeededAnalyzerHazard) {
  const auto report = run(
      "src/analysis/analyzer.cpp",
      "void Analyzer::ingest(const VisitLog& log) {\n"
      "  std::map<std::string, Owner> owner;\n"
      "  std::unordered_map<std::string, CookiePair> candidates;\n"
      "  candidates.try_emplace(\"k\", CookiePair{});\n"
      "}\n");
  EXPECT_TRUE(has_violation(report, "D3", 3));
  EXPECT_FALSE(has_violation(report, "D3", 2));
}

TEST(RuleD3Test, OutsideRestrictedModulesOnlyIterationIsFlagged) {
  const auto lookup_only = run(
      "src/crawler/sched.cpp",
      "int hits() {\n"
      "  std::unordered_map<int, int> cache;\n"
      "  return cache.count(3);\n"
      "}\n");
  EXPECT_TRUE(lookup_only.violations.empty());

  const auto iterated = run(
      "src/crawler/sched.cpp",
      "void dump() {\n"
      "  std::unordered_map<int, int> cache;\n"
      "  for (const auto& [k, v] : cache) emit(k, v);\n"
      "}\n");
  EXPECT_TRUE(has_violation(iterated, "D3", 3));

  const auto via_begin = run(
      "src/crawler/sched.cpp",
      "void scan() {\n"
      "  std::unordered_set<int> seen;\n"
      "  auto it = seen.begin();\n"
      "}\n");
  EXPECT_TRUE(has_violation(via_begin, "D3", 3));
}

TEST(RuleD3Test, StringCommentAndRawStringNearMisses) {
  const auto report = run(
      "src/analysis/doc.cpp",
      "// unordered_map iteration order is the enemy\n"
      "const char* a = \"std::unordered_map<k,v>\";\n"
      "const char* b = R\"(for (auto& x : unordered_set))\";\n");
  EXPECT_TRUE(report.violations.empty());
}

TEST(RuleD3Test, SuppressibleWithReason) {
  const auto report = run(
      "src/store/index.cpp",
      "void build_index() {\n"
      "  // cglint: allow(D3) — drained in sorted key order before emission\n"
      "  std::unordered_map<std::string, int> sizes;\n"
      "}\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.suppression_census.at("D3"), 1);
}

// ---- D4: mutable static state --------------------------------------------

TEST(RuleD4Test, FlagsMutableFunctionLocalStatic) {
  const auto report = run("src/crawler/x.cpp",
                          "int f() {\n"
                          "  static int counter = 0;\n"
                          "  static const int k = 3;\n"
                          "  return ++counter + k;\n"
                          "}\n");
  EXPECT_TRUE(has_violation(report, "D4", 2));
  EXPECT_FALSE(has_violation(report, "D4", 3));
}

TEST(RuleD4Test, FlagsConstructorCallStatics) {
  // The pre-PR test-fixture pattern: static corpus::Corpus instance(params);
  const auto report = run("src/corpus/cache.cpp",
                          "const Corpus& corpus() {\n"
                          "  static corpus::Corpus instance(params);\n"
                          "  return instance;\n"
                          "}\n");
  EXPECT_TRUE(has_violation(report, "D4", 2));

  const auto const_ok = run("src/corpus/cache.cpp",
                            "const Corpus& corpus() {\n"
                            "  static const corpus::Corpus instance(params);\n"
                            "  return instance;\n"
                            "}\n");
  EXPECT_TRUE(const_ok.violations.empty());
}

TEST(RuleD4Test, FlagsMutableNamespaceScopeGlobals) {
  const auto report = run("src/crawler/x.cpp",
                          "namespace cg {\n"
                          "int visit_count = 0;\n"
                          "const int kLimit = 5;\n"
                          "constexpr char kName[] = \"x\";\n"
                          "}\n");
  EXPECT_TRUE(has_violation(report, "D4", 2));
  EXPECT_FALSE(has_violation(report, "D4", 3));
  EXPECT_FALSE(has_violation(report, "D4", 4));
}

TEST(RuleD4Test, FlagsThreadLocalDefinitionNotExternDeclaration) {
  const auto definition = run("src/obs/t.cpp",
                              "thread_local LocalObs* tls_obs = nullptr;\n");
  EXPECT_TRUE(has_violation(definition, "D4", 1));

  const auto declaration = run("src/obs/t.h",
                               "extern thread_local LocalObs* tls_obs;\n");
  EXPECT_TRUE(declaration.violations.empty());
}

TEST(RuleD4Test, IgnoresStaticMemberFunctionsAndFileStaticFunctions) {
  const auto report = run(
      "src/net/url.h",
      "class Url {\n"
      " public:\n"
      "  static std::optional<Url> parse(std::string_view input);\n"
      "  static Url must_parse(std::string_view input);\n"
      "};\n"
      "static int helper(int x) { return x + 1; }\n");
  EXPECT_TRUE(report.violations.empty());
}

TEST(RuleD4Test, FlagsMutableStaticInlineDataMember) {
  const auto report = run("src/crawler/x.h",
                          "struct Stats {\n"
                          "  static inline int live_instances = 0;\n"
                          "  static constexpr int kMax = 8;\n"
                          "};\n");
  EXPECT_TRUE(has_violation(report, "D4", 2));
  EXPECT_FALSE(has_violation(report, "D4", 3));
}

TEST(RuleD4Test, LambdaInitializedConstStaticIsClean) {
  const auto report = run(
      "src/corpus/cache.cpp",
      "const Params& params() {\n"
      "  static const Params p = [] {\n"
      "    Params q;\n"
      "    q.site_count = 40;\n"
      "    return q;\n"
      "  }();\n"
      "  return p;\n"
      "}\n");
  EXPECT_TRUE(report.violations.empty());
}

// ---- W1: unchecked ofstream ----------------------------------------------

TEST(RuleW1Test, FlagsUncheckedOfstreamInDurableOutputModules) {
  const auto report = run("src/store/dump.cpp",
                          "void dump(const std::string& path) {\n"
                          "  std::ofstream out(path);\n"
                          "  out << \"data\";\n"
                          "}\n");
  EXPECT_TRUE(has_violation(report, "W1", 2));
}

TEST(RuleW1Test, HealthCheckAnywhereInTheFileClears) {
  const auto bang = run("src/store/dump.cpp",
                        "bool dump(const std::string& path) {\n"
                        "  std::ofstream out(path);\n"
                        "  out << \"data\";\n"
                        "  return !out ? false : true;\n"
                        "}\n");
  EXPECT_TRUE(bang.violations.empty());

  const auto good = run("examples/tool.cpp",
                        "bool dump(const std::string& path) {\n"
                        "  std::ofstream out(path);\n"
                        "  out << \"data\";\n"
                        "  out.flush();\n"
                        "  return out.good();\n"
                        "}\n");
  EXPECT_TRUE(good.violations.empty());
}

TEST(RuleW1Test, OnlyAppliesToRestrictedModules) {
  const auto report = run("src/obs/dump.cpp",
                          "void dump(const std::string& path) {\n"
                          "  std::ofstream out(path);\n"
                          "  out << \"data\";\n"
                          "}\n");
  EXPECT_TRUE(report.violations.empty());
}

TEST(RuleW1Test, ReferenceParametersAreNotOwners) {
  const auto report = run("src/store/dump.cpp",
                          "void emit(std::ofstream& out) { out << 1; }\n"
                          "void emit2(std::ofstream* out) { *out << 2; }\n");
  EXPECT_TRUE(report.violations.empty());
}

TEST(RuleW1Test, NearMissesInStringsAndComments) {
  const auto report = run(
      "src/store/dump.cpp",
      "// std::ofstream out(path) would be flagged here\n"
      "const char* s = \"std::ofstream out\";\n");
  EXPECT_TRUE(report.violations.empty());
}

TEST(RuleW1Test, SuppressibleWithReason) {
  const auto report = run(
      "src/store/dump.cpp",
      "struct Sink {\n"
      "  // cglint: allow(W1) — every op on out_ is checked in the .cpp\n"
      "  std::ofstream out_;\n"
      "};\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.suppression_census.at("W1"), 1);
}

// ---- L1: layering --------------------------------------------------------

TEST(RuleL1Test, SeededLayeringViolationIsCaught) {
  // webplat must never include crawler: the dependency points the other way.
  const auto report = run("src/webplat/dom.cpp",
                          "#include \"webplat/dom.h\"\n"
                          "\n"
                          "#include \"crawler/crawler.h\"\n");
  EXPECT_TRUE(has_violation(report, "L1", 3));
  EXPECT_FALSE(has_violation(report, "L1", 1));  // own module is free
}

TEST(RuleL1Test, DeclaredEdgesAndOpenModulesPass) {
  const auto report_ok = run("src/report/report.cpp",
                             "#include \"analysis/analyzer.h\"\n"
                             "#include \"report/json.h\"\n");
  EXPECT_TRUE(report_ok.violations.empty());

  const auto tests_ok = run("tests/x_test.cpp",
                            "#include \"crawler/crawler.h\"\n"
                            "#include \"webplat/dom.h\"\n");
  EXPECT_TRUE(tests_ok.violations.empty());
}

TEST(RuleL1Test, PathOverrideCarvesJsoncoreOutOfReport) {
  // webplat may not include report, and indeed may not reach json either
  // (only obs may in the real config; here webplat lacks the edge).
  const auto bad = run("src/webplat/dom.cpp",
                       "#include \"report/json.h\"\n");
  EXPECT_TRUE(has_violation(bad, "L1", 1));

  // analysis → jsoncore is not declared in the fixture either, but
  // report → jsoncore is.
  const auto good = run("src/report/report.cpp",
                        "#include \"report/json.h\"\n");
  EXPECT_TRUE(good.violations.empty());
}

TEST(RuleL1Test, SuppressibleOnTheIncludeLine) {
  const auto report = run(
      "src/webplat/dom.cpp",
      "#include \"crawler/crawler.h\"  "
      "// cglint: allow(L1) — transitional; tracked in ISSUE\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.suppression_census.at("L1"), 1);
}

// ---- suppression grammar -------------------------------------------------

TEST(SuppressionTest, OwnLineAppliesToNextCodeLine) {
  const auto report = run(
      "src/crawler/x.cpp",
      "// cglint: allow(D1) — virtual deadline diagnostics only\n"
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.suppression_census.at("D1"), 1);
}

TEST(SuppressionTest, MultiRuleAllowCoversBoth) {
  const auto report = run(
      "src/analysis/x.cpp",
      "// cglint: allow(D3,D4) — ordered drain audited in review\n"
      "static std::unordered_map<int, int> cache;\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.suppression_census.at("D3"), 1);
  EXPECT_EQ(report.suppression_census.at("D4"), 1);
}

TEST(SuppressionTest, MissingReasonIsItsOwnViolation) {
  const auto report = run(
      "src/crawler/x.cpp",
      "auto t = std::chrono::steady_clock::now();  // cglint: allow(D1)\n");
  // The D1 hit is suppressed, but the reasonless suppression fails the run.
  EXPECT_TRUE(has_violation(report, "S2", 1));
  EXPECT_EQ(report.suppression_census.at("D1"), 1);
}

TEST(SuppressionTest, MalformedAnnotationIsReported) {
  const auto report = run("src/crawler/x.cpp",
                          "// cglint: alow(D1) — typo in the verb\n");
  EXPECT_TRUE(has_violation(report, "S1", 1));
}

TEST(SuppressionTest, WrongRuleDoesNotSuppress) {
  const auto report = run(
      "src/crawler/x.cpp",
      "auto t = std::chrono::steady_clock::now();  "
      "// cglint: allow(D2) — wrong rule\n");
  EXPECT_TRUE(has_violation(report, "D1", 1));
}

// ---- config --------------------------------------------------------------

TEST(ConfigTest, RejectsCyclicLayering) {
  std::string error;
  const auto config = Config::parse(
      "deps a: b\n"
      "deps b: c\n"
      "deps c: a\n",
      &error);
  EXPECT_FALSE(config.has_value());
  EXPECT_NE(error.find("cycle"), std::string::npos);
}

TEST(ConfigTest, RejectsUndeclaredDependency) {
  std::string error;
  const auto config = Config::parse("deps a: ghost\n", &error);
  EXPECT_FALSE(config.has_value());
  EXPECT_NE(error.find("undeclared"), std::string::npos);
}

TEST(ConfigTest, RejectsUnknownKeyword) {
  std::string error;
  const auto config = Config::parse("allowrule D1 everywhere\n", &error);
  EXPECT_FALSE(config.has_value());
}

TEST(ConfigTest, ModuleMappingAndOverrides) {
  std::string error;
  const auto config = Config::parse(
      "path src/report/json jsoncore\n"
      "deps jsoncore:\n"
      "deps report: jsoncore\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->module_of("src/report/report.cpp"), "report");
  EXPECT_EQ(config->module_of("src/report/json.h"), "jsoncore");
  EXPECT_EQ(config->module_of("bench/bench_fig2.cpp"), "bench");
  EXPECT_EQ(config->module_of("tools/cglint.cpp"), "tools");
}

// ---- W2: must-check results ----------------------------------------------

TEST(RuleW2Test, FlagsDefinitionWithoutNodiscard) {
  const auto report = run("src/store/byte_sink.h",
                          "struct IoStatus {\n"
                          "  bool ok() const;\n"
                          "};\n");
  EXPECT_TRUE(has_violation(report, "W2", 1));

  const auto annotated = run("src/store/byte_sink.h",
                             "struct [[nodiscard]] IoStatus {\n"
                             "  bool ok() const;\n"
                             "};\n");
  EXPECT_TRUE(annotated.violations.empty());
}

TEST(RuleW2Test, FlagsDiscardedMemberCallButNotConsumedOrVoidCast) {
  const auto report = run(
      "src/store/writer.cpp",
      "struct [[nodiscard]] IoStatus { bool ok() const; };\n"
      "class FileSink {\n"
      " public:\n"
      "  IoStatus write(std::string_view bytes);\n"
      "  IoStatus flush();\n"
      "};\n"
      "bool emit(std::string_view bytes) {\n"
      "  FileSink sink;\n"
      "  sink.write(bytes);\n"
      "  (void)sink.write(bytes);\n"
      "  return sink.flush().ok();\n"
      "}\n");
  EXPECT_TRUE(has_violation(report, "W2", 9));
  EXPECT_FALSE(has_violation(report, "W2", 10));
  EXPECT_FALSE(has_violation(report, "W2", 11));
}

TEST(RuleW2Test, FlagsDiscardedFreeFunctionResult) {
  const auto report = run(
      "src/browser/browser.cpp",
      "struct [[nodiscard]] NavigationResult { bool ok() const; };\n"
      "NavigationResult navigate_home();\n"
      "void warm() {\n"
      "  navigate_home();\n"
      "  auto result = navigate_home();\n"
      "}\n");
  EXPECT_TRUE(has_violation(report, "W2", 4));
  EXPECT_FALSE(has_violation(report, "W2", 5));
}

TEST(RuleW2Test, ResolvesMemberReceiversAcrossFiles) {
  // The receiver type of `inner_` is only discoverable from the header; the
  // discard itself sits in the .cpp. This is the cross-file case the
  // pass-1 symbol index exists for.
  const std::vector<SourceFile> sources = {
      {"src/store/sink.h",
       "struct [[nodiscard]] IoStatus { bool ok() const; };\n"
       "class FileSink {\n"
       " public:\n"
       "  IoStatus write(std::string_view bytes);\n"
       "};\n"
       "class Writer {\n"
       " public:\n"
       "  IoStatus append(std::string_view bytes);\n"
       " private:\n"
       "  FileSink inner_;\n"
       "};\n"},
      {"src/store/writer_impl.cpp",
       "IoStatus Writer::append(std::string_view bytes) {\n"
       "  inner_.write(bytes);\n"
       "  return inner_.write(bytes);\n"
       "}\n"},
  };
  const auto report = lint_sources(fixture_config(), sources);
  EXPECT_TRUE(has_violation(report, "W2", 2));
  EXPECT_FALSE(has_violation(report, "W2", 3));
}

TEST(RuleW2Test, SuppressibleWithReason) {
  const auto report = run(
      "src/store/writer.cpp",
      "struct [[nodiscard]] IoStatus { bool ok() const; };\n"
      "IoStatus flush_all();\n"
      "void teardown() {\n"
      "  flush_all();  // cglint: allow(W2) — destructor path; failure is already latched\n"
      "}\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.suppression_census.at("W2"), 1);
}

// ---- E1: taxonomy exhaustiveness -----------------------------------------

TEST(RuleE1Test, FlagsBareDefaultOverRegisteredEnum) {
  const auto report = run_semantic(
      "src/fault/classify.cpp",
      "enum class FailureClass { kNone, kDnsFailure, kConnectTimeout };\n"
      "int classify(FailureClass cls) {\n"
      "  switch (cls) {\n"
      "    case FailureClass::kNone:\n"
      "      return 0;\n"
      "    default:\n"
      "      return 1;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(has_violation(report, "E1", 6));
}

TEST(RuleE1Test, ListsMissingEnumeratorsWhenThereIsNoDefault) {
  const auto report = run_semantic(
      "src/fault/classify.cpp",
      "enum class FailureClass { kNone, kDnsFailure, kConnectTimeout };\n"
      "int classify(FailureClass cls) {\n"
      "  switch (cls) {\n"
      "    case FailureClass::kNone:\n"
      "      return 0;\n"
      "    case FailureClass::kDnsFailure:\n"
      "      return 1;\n"
      "  }\n"
      "  return 2;\n"
      "}\n");
  ASSERT_TRUE(has_violation(report, "E1", 3));
  EXPECT_NE(report.violations[0].message.find("kConnectTimeout"),
            std::string::npos);
}

TEST(RuleE1Test, ExhaustiveSwitchAndUnregisteredEnumAreClean) {
  const auto exhaustive = run_semantic(
      "src/fault/classify.cpp",
      "enum class FailureClass { kNone, kDnsFailure };\n"
      "int classify(FailureClass cls) {\n"
      "  switch (cls) {\n"
      "    case FailureClass::kNone:\n"
      "      return 0;\n"
      "    case FailureClass::kDnsFailure:\n"
      "      return 1;\n"
      "  }\n"
      "  return 2;\n"
      "}\n");
  EXPECT_TRUE(exhaustive.violations.empty());

  // `Color` is not in the enum registry: bare defaults stay legal there.
  const auto unregistered = run_semantic(
      "src/fault/classify.cpp",
      "enum class Color { kRed, kGreen };\n"
      "int hue(Color c) {\n"
      "  switch (c) {\n"
      "    case Color::kRed:\n"
      "      return 0;\n"
      "    default:\n"
      "      return 1;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(unregistered.violations.empty());
}

TEST(RuleE1Test, ResolvesEnumeratorListAcrossFiles) {
  const std::vector<SourceFile> sources = {
      {"src/fault/fault2.h",
       "enum class FailureClass { kNone, kDnsFailure, kConnectTimeout };\n"},
      {"src/fault/classify.cpp",
       "int classify(FailureClass cls) {\n"
       "  switch (cls) {\n"
       "    case FailureClass::kNone:\n"
       "      return 0;\n"
       "    case FailureClass::kDnsFailure:\n"
       "      return 1;\n"
       "  }\n"
       "  return 2;\n"
       "}\n"},
  };
  const auto report = lint_sources(semantic_config(), sources);
  ASSERT_TRUE(has_violation(report, "E1", 2));
  EXPECT_NE(report.violations[0].message.find("kConnectTimeout"),
            std::string::npos);
}

TEST(RuleE1Test, SuppressibleWithReason) {
  const auto report = run_semantic(
      "src/fault/classify.cpp",
      "enum class FailureClass { kNone, kDnsFailure };\n"
      "int classify(FailureClass cls) {\n"
      "  switch (cls) {\n"
      "    case FailureClass::kNone:\n"
      "      return 0;\n"
      "    // cglint: allow(E1) — forward-compat shim; new classes degrade\n"
      "    default:\n"
      "      return 1;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.suppression_census.at("E1"), 1);
}

// ---- M1: metrics-name registry -------------------------------------------

TEST(RuleM1Test, ChecksObsHelpersAndConfiguredWrappers) {
  const auto report = run_semantic(
      "src/crawler/tick.cpp",
      "void tick(std::string_view name) {\n"
      "  obs::metric_add(\"crawl.sites\", 1);\n"
      "  obs::metric_add(\"crawl.sitez\", 1);\n"
      "  count_metric(concat(\"io.faults.\", name));\n"
      "  count_metric(concat(\"io.lost.\", name));\n"
      "}\n");
  EXPECT_FALSE(has_violation(report, "M1", 2));
  EXPECT_TRUE(has_violation(report, "M1", 3));
  EXPECT_FALSE(has_violation(report, "M1", 4));
  EXPECT_TRUE(has_violation(report, "M1", 5));
}

TEST(RuleM1Test, ReceiverAndShapeGatesSkipLookalikes) {
  const auto report = run_semantic(
      "src/crawler/tick.cpp",
      "void f(HttpHeaders& headers, MetricsRegistry& metrics) {\n"
      "  headers.add(\"Set-Cookie\", \"a=1\");\n"
      "  metrics.add(\"c\");\n"
      "  metrics.add(\"crawl.sites\");\n"
      "  metrics.add(\"crawl.oops\");\n"
      "}\n");
  EXPECT_FALSE(has_violation(report, "M1", 2));  // receiver gate
  EXPECT_FALSE(has_violation(report, "M1", 3));  // shape gate: no dot
  EXPECT_FALSE(has_violation(report, "M1", 4));
  EXPECT_TRUE(has_violation(report, "M1", 5));
}

TEST(RuleM1Test, CensusReportsUnusedRegistryEntries) {
  const auto report = lint_sources(
      semantic_config(),
      {{"src/crawler/tick.cpp",
        "void tick() { obs::metric_add(\"crawl.sites\", 1); }\n"}});
  ASSERT_EQ(report.unused_metric_entries.size(), 1u);
  EXPECT_EQ(report.unused_metric_entries[0], "io.faults.*");
}

TEST(RuleM1Test, SuppressibleWithReason) {
  const auto report = run_semantic(
      "src/crawler/tick.cpp",
      "void tick() {\n"
      "  obs::metric_add(\"crawl.scratch\", 1);  "
      "// cglint: allow(M1) — scratch fixture name, not a fleet metric\n"
      "}\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.suppression_census.at("M1"), 1);
}

// ---- L2: apps-tier layering ----------------------------------------------

TEST(RuleL2Test, AppsTierViolationsReportAsL2NotL1) {
  const auto report = run("bench/bench_x.cpp",
                          "#include \"analysis/analyzer.h\"\n"
                          "#include \"webplat/dom.h\"\n");
  EXPECT_TRUE(has_violation(report, "L2", 1));   // analysis: undeclared edge
  EXPECT_FALSE(has_violation(report, "L1", 1));  // relabelled, not doubled
  EXPECT_FALSE(has_violation(report, "L2", 2));  // webplat: declared
}

TEST(RuleL2Test, SuppressibleOnTheIncludeLine) {
  const auto report = run(
      "bench/bench_x.cpp",
      "#include \"analysis/analyzer.h\"  "
      "// cglint: allow(L2) — transitional; tracked in ISSUE\n");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.suppression_census.at("L2"), 1);
}

TEST(ConfigTest, AppsModuleMustDeclareItsDeps) {
  std::string error;
  const auto config = Config::parse("deps net:\napps bench\n", &error);
  EXPECT_FALSE(config.has_value());
  EXPECT_NE(error.find("deps"), std::string::npos);
}

TEST(ConfigTest, NameRegistryMatchesExactAndWildcardEntries) {
  std::string error;
  auto registry =
      NameRegistry::parse("# comment\ncrawl.sites\nio.faults.*\n", &error);
  ASSERT_TRUE(registry.has_value()) << error;
  std::string entry;
  EXPECT_TRUE(registry->matches("crawl.sites", &entry));
  EXPECT_EQ(entry, "crawl.sites");
  EXPECT_TRUE(registry->matches("io.faults.no_space", &entry));
  EXPECT_EQ(entry, "io.faults.*");
  EXPECT_FALSE(registry->matches("crawl.sitez", nullptr));
  EXPECT_TRUE(registry->matches_prefix("io.faults.", &entry));
  EXPECT_FALSE(registry->matches_prefix("crawl.", nullptr));
}

TEST(ConfigTest, NameRegistryRejectsNonTrailingWildcards) {
  std::string error;
  EXPECT_FALSE(NameRegistry::parse("*\n", &error).has_value());
  EXPECT_FALSE(NameRegistry::parse("io.*.x\n", &error).has_value());
}

// ---- baseline gating -----------------------------------------------------

TEST(BaselineTest, ExcusesKnownFindingsButNotNewOnes) {
  const auto first = run("src/crawler/visit.cpp",
                         "auto t = std::chrono::system_clock::now();\n");
  ASSERT_EQ(first.violations.size(), 1u);
  const auto baseline =
      cg::lint::Baseline::parse(cg::lint::write_baseline_text(first));
  ASSERT_EQ(baseline.entries.size(), 1u);

  // Keys are line-number-free: the same finding shifted down the file is
  // still excused.
  auto moved = run("src/crawler/visit.cpp",
                   "\n\nauto t = std::chrono::system_clock::now();\n");
  cg::lint::apply_baseline(&moved, baseline);
  EXPECT_TRUE(moved.violations.empty());
  EXPECT_EQ(moved.baselined, 1);

  // Multiset semantics: one baseline entry excuses at most one finding, so
  // the newly introduced second hit still fails the run.
  auto grown = run("src/crawler/visit.cpp",
                   "auto t = std::chrono::system_clock::now();\n"
                   "auto u = std::chrono::system_clock::now();\n");
  cg::lint::apply_baseline(&grown, baseline);
  EXPECT_EQ(grown.violations.size(), 1u);
  EXPECT_EQ(grown.baselined, 1);
}

// ---- SARIF ---------------------------------------------------------------

TEST(SarifTest, EmitsValidSarif210Structure) {
  const auto report = run("src/crawler/visit.cpp",
                          "auto t = std::chrono::system_clock::now();\n");
  ASSERT_EQ(report.violations.size(), 1u);

  const auto parsed = cg::report::Json::parse(cg::lint::to_sarif(report));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("version")->as_string(), "2.1.0");

  const auto& runs = *parsed->find("runs");
  ASSERT_EQ(runs.size(), 1u);
  const auto& driver = *runs.at(0).find("tool")->find("driver");
  EXPECT_EQ(driver.find("name")->as_string(), "cglint");
  EXPECT_EQ(driver.find("rules")->size(), 14u);

  const auto& results = *runs.at(0).find("results");
  ASSERT_EQ(results.size(), 1u);
  const auto& result = results.at(0);
  EXPECT_EQ(result.find("ruleId")->as_string(), "D1");
  EXPECT_EQ(result.find("level")->as_string(), "error");
  const auto& location =
      *result.find("locations")->at(0).find("physicalLocation");
  EXPECT_EQ(location.find("artifactLocation")->find("uri")->as_string(),
            "src/crawler/visit.cpp");
  EXPECT_EQ(location.find("region")->find("startLine")->as_int(), 1);
}

// ---- roots ---------------------------------------------------------------

// A root that is neither a file nor a readable directory is an IO finding,
// alone or beside a good root: a mistyped path must fail the run, not lint
// nothing and pass.
TEST(LintPathsTest, MissingRootIsAnIoViolation) {
  const std::string missing = "no/such/lint/root";
  ASSERT_FALSE(std::filesystem::exists(missing));
  const auto empty = std::filesystem::temp_directory_path() / "cglint-empty";
  std::filesystem::create_directories(empty);
  const std::string good = empty.string();

  for (const auto& roots : {std::vector<std::string>{missing},
                            std::vector<std::string>{good, missing}}) {
    const LintReport report = cg::lint::lint_paths(fixture_config(), roots);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].file, missing);
    EXPECT_EQ(report.violations[0].rule, "IO");
    EXPECT_EQ(report.violations[0].line, 0);
  }
}

// ---- self-hosting --------------------------------------------------------

// The repo must lint clean with ALL rules armed — the checked-in enum and
// metric registries attached — with zero unsuppressed violations, every
// suppression reasoned, no dead registry entries, and the full-tree scan
// comfortably inside the 2 s budget (CI gates harder via --max-ms 200).
TEST(SelfHostTest, RepositoryLintsCleanAndFast) {
  const std::filesystem::path root = CG_SOURCE_ROOT;
  ASSERT_TRUE(std::filesystem::exists(root / "lint" / "layering.txt"));

  const auto previous = std::filesystem::current_path();
  std::filesystem::current_path(root);

  std::string error;
  auto config = Config::load("lint/layering.txt", &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto enums = NameRegistry::load("lint/enums.txt", &error);
  ASSERT_TRUE(enums.has_value()) << error;
  config->set_enum_registry(std::move(*enums));
  auto metrics = NameRegistry::load("lint/metrics.txt", &error);
  ASSERT_TRUE(metrics.has_value()) << error;
  config->set_metric_registry(std::move(*metrics));

  const auto start = std::chrono::steady_clock::now();  // cglint: allow(D1) — measuring the linter's own wall-clock budget is this test's purpose
  const LintReport report = cg::lint::lint_paths(
      *config, {"src", "bench", "examples", "tests", "tools"});
  const auto elapsed = std::chrono::steady_clock::now() - start;  // cglint: allow(D1) — measuring the linter's own wall-clock budget is this test's purpose

  std::filesystem::current_path(previous);

  for (const auto& violation : report.violations) {
    ADD_FAILURE() << violation.file << ":" << violation.line << ": ["
                  << violation.rule << "] " << violation.message;
  }
  for (const auto& entry : report.suppressed) {
    EXPECT_FALSE(entry.reason.empty())
        << entry.violation.file << ":" << entry.violation.line;
  }
  for (const auto& entry : report.unused_metric_entries) {
    ADD_FAILURE() << "lint/metrics.txt: unused metric entry '" << entry
                  << "'";
  }
  EXPECT_GT(report.files_scanned, 100);
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 2.0);
}

// The tool's own determinism: linting the same tree twice formats
// byte-identically.
TEST(SelfHostTest, ReportFormattingIsDeterministic) {
  const std::filesystem::path root = CG_SOURCE_ROOT;
  const auto previous = std::filesystem::current_path();
  std::filesystem::current_path(root);

  std::string error;
  const auto config = Config::load("lint/layering.txt", &error);
  ASSERT_TRUE(config.has_value()) << error;
  const auto a = cg::lint::lint_paths(*config, {"src", "tools"});
  const auto b = cg::lint::lint_paths(*config, {"src", "tools"});
  std::filesystem::current_path(previous);

  EXPECT_EQ(cg::lint::format_report(a, true), cg::lint::format_report(b, true));
}

}  // namespace
