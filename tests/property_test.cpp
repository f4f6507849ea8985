// Property-style tests: invariants that must hold across swept parameter
// spaces — the paper's enforcement matrix, encoding-independent detection,
// template/jar round-trips, and crawl determinism.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <string_view>

#include "analysis/analyzer.h"
#include "cookieguard/cookieguard.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "instrument/recorder.h"
#include "script/interpreter.h"
#include "test_support.h"

namespace cg {
namespace {

using script::Encoding;
using testsupport::TestSite;
using testsupport::context_for_url;

// ---- CookieGuard policy lattice -----------------------------------------
//
// For every (reader, policy) combination, is a cookie created by
// facebook.net on shop.example visible?
struct PolicyCase {
  const char* reader_url;
  bool entity_grouping;
  bool site_owner_access;
  bool expect_visible;
};

// Names each case by value ("cdn.tracker.com group=1 owner=1"); the
// default printer dumps the struct's bytes, pointer values included, so
// the case names would change with every build and run.
void PrintTo(const PolicyCase& c, std::ostream* os) {
  std::string_view host = c.reader_url;
  host.remove_prefix(host.find("://") + 3);
  host = host.substr(0, host.find('/'));
  *os << host << " group=" << c.entity_grouping
      << " owner=" << c.site_owner_access;
}

class PolicyLatticeTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyLatticeTest, VisibilityMatchesPolicy) {
  const auto& param = GetParam();
  TestSite site;
  cookieguard::CookieGuardConfig config;
  config.entity_grouping = param.entity_grouping;
  config.site_owner_full_access = param.site_owner_access;
  cookieguard::CookieGuard guard(config);
  site.browser().add_extension(&guard);
  auto page = site.open();

  const auto owner = context_for_url("https://connect.facebook.net/f.js");
  page->run_as(owner, [&](script::PageServices& services) {
    services.document_cookie_write(owner, "_fbp=fb.1.1.868; Path=/");
  });

  const auto reader = context_for_url(param.reader_url);
  std::string seen;
  page->run_as(reader, [&](script::PageServices& services) {
    seen = services.document_cookie_read(reader);
  });
  EXPECT_EQ(seen.find("_fbp=") != std::string::npos, param.expect_visible)
      << param.reader_url;
}

INSTANTIATE_TEST_SUITE_P(
    EnforcementMatrix, PolicyLatticeTest,
    ::testing::Values(
        // The creator always sees its cookie, under every policy.
        PolicyCase{"https://connect.facebook.net/f.js", false, true, true},
        PolicyCase{"https://connect.facebook.net/f.js", true, false, true},
        // An unrelated tracker never does.
        PolicyCase{"https://cdn.tracker.com/t.js", false, true, false},
        PolicyCase{"https://cdn.tracker.com/t.js", true, true, false},
        // The site owner sees it iff the owner policy is on.
        PolicyCase{"https://www.shop.example/app.js", false, true, true},
        PolicyCase{"https://www.shop.example/app.js", false, false, false},
        // A same-entity domain sees it iff grouping is on.
        PolicyCase{"https://static.fbcdn.net/chat.js", true, true, true},
        PolicyCase{"https://static.fbcdn.net/chat.js", false, true, false}));

// ---- encoding-independent exfiltration detection -------------------------
//
// Whatever encoding a tracker uses, the end-to-end pipeline (browser →
// instrumentation → analyzer) confirms the exfiltration.
class EncodingDetectionTest : public ::testing::TestWithParam<Encoding> {};

TEST_P(EncodingDetectionTest, DetectedEndToEnd) {
  const Encoding encoding = GetParam();
  TestSite site({"owner-pixel", "thief"});
  site.catalog().add(testsupport::spec_of(
      "owner-pixel", "https://connect.facebook.net/f.js",
      script::Category::kSocial,
      {script::set_cookie("_fbp", "fb.1.{ts_ms}.{rand:18}", "; Path=/",
                          false)}));
  site.catalog().add(testsupport::spec_of(
      "thief", "https://cdn.thief.io/t.js", script::Category::kAdvertising,
      {script::exfiltrate({"_fbp"}, "sync.thief.io", encoding)}));

  instrument::Recorder recorder;
  instrument::VisitLog log;
  log.rank = 1;
  recorder.set_visit_log(&log);
  site.browser().add_extension(&recorder);
  site.open();

  analysis::Analyzer analyzer(entities::EntityMap::builtin());
  analyzer.ingest(log);
  EXPECT_EQ(analyzer.totals().sites_doc_exfil, 1)
      << "encoding " << script::to_string(encoding);
  const auto top = analyzer.top_exfiltrated(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].pair.name, "_fbp");
  EXPECT_EQ(top[0].stats->exfiltrator_entities.count("thief.io"), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, EncodingDetectionTest,
                         ::testing::Values(Encoding::kRaw, Encoding::kBase64,
                                           Encoding::kMd5, Encoding::kSha1));

// ---- CookieGuard stops every encoding the same way ----------------------

TEST_P(EncodingDetectionTest, BlockedByCookieGuardEndToEnd) {
  const Encoding encoding = GetParam();
  TestSite site({"owner-pixel", "thief"});
  site.catalog().add(testsupport::spec_of(
      "owner-pixel", "https://connect.facebook.net/f.js",
      script::Category::kSocial,
      {script::set_cookie("_fbp", "fb.1.{ts_ms}.{rand:18}", "; Path=/",
                          false)}));
  site.catalog().add(testsupport::spec_of(
      "thief", "https://cdn.thief.io/t.js", script::Category::kAdvertising,
      {script::exfiltrate({"_fbp"}, "sync.thief.io", encoding)}));

  cookieguard::CookieGuard guard;
  instrument::Recorder recorder;
  instrument::VisitLog log;
  log.rank = 1;
  recorder.set_visit_log(&log);
  site.browser().add_extension(&guard);
  site.browser().add_extension(&recorder);
  site.open();

  analysis::Analyzer analyzer(entities::EntityMap::builtin());
  analyzer.ingest(log);
  EXPECT_EQ(analyzer.totals().sites_doc_exfil, 0);
}

// ---- template → Set-Cookie round-trip ------------------------------------
//
// Every cookie value template in the generated catalog must expand to a
// string that survives the Set-Cookie grammar unchanged.
TEST(CatalogProperty, AllValueTemplatesRoundTripThroughSetCookie) {
  corpus::CorpusParams params;
  params.site_count = 150;
  corpus::Corpus corpus(params);
  script::Rng rng(99);
  int checked = 0;

  std::function<void(const std::vector<script::ScriptOp>&)> walk =
      [&](const std::vector<script::ScriptOp>& ops) {
        for (const auto& op : ops) {
          if (op.kind == script::OpKind::kSetCookie ||
              op.kind == script::OpKind::kStoreSetCookie) {
            const auto value = script::expand_template(op.value_template, rng,
                                                       1746748800000);
            const auto parsed = net::parse_set_cookie(
                op.cookie_name + "=" + value + op.attributes);
            ASSERT_TRUE(parsed.has_value()) << op.cookie_name;
            EXPECT_EQ(parsed->name, op.cookie_name);
            EXPECT_EQ(parsed->value, value) << op.cookie_name;
            ++checked;
          }
          walk(op.nested);
        }
      };
  for (const auto& [id, spec] : corpus.catalog().all()) walk(spec.ops);
  EXPECT_GT(checked, 500);
}

// ---- crawl determinism across a site sweep -------------------------------

class DeterminismTest : public ::testing::TestWithParam<int> {
 protected:
  static const corpus::Corpus& corpus() {
    static const corpus::CorpusParams params = [] {
      corpus::CorpusParams p;
      p.site_count = 40;
      return p;
    }();
    static const corpus::Corpus instance(params);
    return instance;
  }
};

TEST_P(DeterminismTest, RepeatedVisitsAreIdentical) {
  crawler::Crawler crawler(corpus());
  crawler::CrawlOptions options;
  const int index = GetParam();
  const auto a = crawler.visit(index, options);
  const auto b = crawler.visit(index, options);

  ASSERT_EQ(a.script_sets.size(), b.script_sets.size());
  for (std::size_t i = 0; i < a.script_sets.size(); ++i) {
    EXPECT_EQ(a.script_sets[i].cookie_name, b.script_sets[i].cookie_name);
    EXPECT_EQ(a.script_sets[i].value, b.script_sets[i].value);
    EXPECT_EQ(a.script_sets[i].time, b.script_sets[i].time);
  }
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].url, b.requests[i].url);
  }
  EXPECT_EQ(a.landing_timings.load_event, b.landing_timings.load_event);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeterminismTest,
                         ::testing::Values(0, 3, 7, 13, 21, 34));

// ---- analyzer invariants under random logs -------------------------------

TEST(AnalyzerProperty, CountersAreConsistentOnRealCrawl) {
  corpus::CorpusParams params;
  params.site_count = 200;
  corpus::Corpus corpus(params);
  crawler::Crawler crawler(corpus);
  analysis::Analyzer analyzer(corpus.entities());
  crawler::CrawlOptions options;
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    analyzer.ingest(log);
  });

  const auto& t = analyzer.totals();
  // Site counters never exceed the analyzed-site count.
  for (const int counter :
       {t.sites_doc_exfil, t.sites_doc_overwrite, t.sites_doc_delete,
        t.sites_store_exfil, t.sites_with_cross_dom_modification}) {
    EXPECT_GE(counter, 0);
    EXPECT_LE(counter, t.sites_complete);
  }
  EXPECT_LE(t.sites_complete, t.sites_crawled);
  // Attribute-change counters never exceed the overwrite count.
  EXPECT_LE(t.overwrite_value_changed, t.cross_overwrites);
  EXPECT_LE(t.overwrite_expires_changed, t.cross_overwrites);
  EXPECT_LE(t.overwrite_path_changed, t.cross_overwrites);
  // Every ranked pair is present in the pair map with non-empty stats.
  for (const auto& row : analyzer.top_exfiltrated(50)) {
    EXPECT_TRUE(row.stats->exfiltrated());
    EXPECT_FALSE(row.pair.name.empty());
  }
  // Per-domain unique-cookie counts are bounded by the global pair count.
  const int total_pairs =
      analyzer.pair_count(cookies::CookieSource::kDocumentCookie) +
      analyzer.pair_count(cookies::CookieSource::kCookieStore);
  for (const auto& [domain, count] : analyzer.top_exfiltrator_domains(50)) {
    EXPECT_LE(count, total_pairs);
  }
  // Attribution accuracy fractions are sane.
  EXPECT_LE(t.attribution_correct + t.attribution_unknown, t.attributed_sets);
}

}  // namespace
}  // namespace cg
