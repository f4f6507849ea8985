// Tests for the analysis framework: ownership timelines, cross-domain
// action classification, encoded exfiltration matching, aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "crypto/base64.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "entities/entity_map.h"
#include "net/query.h"
#include "report/report.h"
#include "script/interpreter.h"

namespace cg::analysis {
namespace {

using cookies::CookieChange;
using cookies::CookieSource;
using instrument::VisitLog;

VisitLog base_log() {
  VisitLog log;
  log.site_host = "www.example.com";
  log.site = "example.com";
  log.has_cookie_logs = true;
  log.has_request_logs = true;
  log.pages_visited = 1;
  return log;
}

instrument::ScriptCookieSetRecord set_record(
    const std::string& name, const std::string& value,
    const std::string& domain, TimeMillis t,
    CookieChange::Type type = CookieChange::Type::kCreated,
    CookieSource api = CookieSource::kDocumentCookie) {
  instrument::ScriptCookieSetRecord r;
  r.cookie_name = name;
  r.value = value;
  r.setter_domain = domain;
  r.setter_url = domain.empty() ? "" : "https://cdn." + domain + "/s.js";
  r.true_domain = domain;
  r.api = api;
  r.change_type = type;
  r.time = t;
  return r;
}

instrument::RequestRecord request(const std::string& url,
                                  const std::string& initiator_domain,
                                  TimeMillis t) {
  instrument::RequestRecord r;
  r.url = url;
  const auto parsed = net::Url::must_parse(url);
  r.host = parsed.host();
  r.dest_domain = parsed.site();
  r.initiator_domain = initiator_domain;
  r.initiator_url = "https://cdn." + initiator_domain + "/s.js";
  r.destination = net::RequestDestination::kXhr;
  r.time = t;
  return r;
}

class AnalyzerTest : public ::testing::Test {
 protected:
  Analyzer analyzer_{entities::EntityMap::builtin()};
};

TEST_F(AnalyzerTest, IncompleteVisitsExcludedFromActionAnalysis) {
  auto log = base_log();
  log.has_request_logs = false;
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.123456789.1746", "googletagmanager.com", 1));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_crawled, 1);
  EXPECT_EQ(analyzer_.totals().sites_complete, 0);
  EXPECT_TRUE(analyzer_.pairs().empty());
}

TEST_F(AnalyzerTest, FirstSetterOwnsThePair) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.111111111.1746", "googletagmanager.com", 1));
  log.script_sets.push_back(set_record("_ga", "GA1.2.222222222.1746",
                                       "google-analytics.com", 2,
                                       CookieChange::Type::kOverwritten));
  analyzer_.ingest(log);
  const CookiePair pair{"_ga", "googletagmanager.com"};
  ASSERT_TRUE(analyzer_.pairs().count(pair));
  const auto& stats = analyzer_.pairs().at(pair);
  // google-analytics.com ≠ googletagmanager.com: cross-domain overwrite,
  // even though both are Google (the paper compares domains, not entities).
  EXPECT_EQ(stats.overwriter_entities.count("Google"), 1u);
  EXPECT_EQ(analyzer_.totals().sites_doc_overwrite, 1);
}

TEST_F(AnalyzerTest, SameDomainOverwriteIsAuthorized) {
  auto log = base_log();
  log.script_sets.push_back(set_record("_t", "val1val1val1", "tracker.com", 1));
  log.script_sets.push_back(set_record("_t", "val2val2val2", "tracker.com", 2,
                                       CookieChange::Type::kOverwritten));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_overwrite, 0);
  EXPECT_EQ(analyzer_.overwritten_pair_count(CookieSource::kDocumentCookie),
            0);
}

TEST_F(AnalyzerTest, CrossDomainDeletionTracked) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_fbp", "fb.1.1746.868308499845957651", "facebook.net", 1));
  log.script_sets.push_back(set_record("_fbp", "", "cdn-cookieyes.com", 2,
                                       CookieChange::Type::kDeleted));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_delete, 1);
  const auto top = analyzer_.top_deleted(5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].pair.name, "_fbp");
  EXPECT_EQ(top[0].stats->deleter_entities.count("CookieYes"), 1u);
}

TEST_F(AnalyzerTest, RecreationAfterDeletionStartsNewPair) {
  auto log = base_log();
  log.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "a.com", 1));
  log.script_sets.push_back(
      set_record("k", "", "b.com", 2, CookieChange::Type::kDeleted));
  log.script_sets.push_back(set_record("k", "bbbbbbbbbbbb", "b.com", 3));
  analyzer_.ingest(log);
  EXPECT_TRUE(analyzer_.pairs().count({"k", "a.com"}));
  EXPECT_TRUE(analyzer_.pairs().count({"k", "b.com"}));
}

TEST_F(AnalyzerTest, ExfiltrationDetectedRaw) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.444332364.1746838827", "googletagmanager.com",
                 1));
  log.requests.push_back(request(
      "https://bat.bing.com/action?ga=444332364&t=9", "bing.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 1);
  const auto& stats =
      analyzer_.pairs().at({"_ga", "googletagmanager.com"});
  EXPECT_EQ(stats.exfiltrator_entities.count("Microsoft"), 1u);
  EXPECT_EQ(stats.destination_entities.count("Microsoft"), 1u);
}

TEST_F(AnalyzerTest, ExfiltrationDetectedBase64Md5Sha1) {
  const std::string id = "868308499845957651";
  for (const std::string& encoded :
       {crypto::base64_encode(id), crypto::Md5::hex(id),
        crypto::Sha1::hex(id)}) {
    Analyzer analyzer(entities::EntityMap::builtin());
    auto log = base_log();
    log.script_sets.push_back(
        set_record("_fbp", "fb.1.174674." + id, "facebook.net", 1));
    log.requests.push_back(request(
        "https://sslwidget.criteo.com/event?fbp=" + encoded, "osano.com", 5));
    analyzer.ingest(log);
    EXPECT_EQ(analyzer.totals().sites_doc_exfil, 1) << encoded;
    const auto& stats = analyzer.pairs().at({"_fbp", "facebook.net"});
    EXPECT_EQ(stats.exfiltrator_entities.count("Osano"), 1u);
    EXPECT_EQ(stats.destination_entities.count("Criteo"), 1u);
  }
}

TEST_F(AnalyzerTest, OwnerExfiltrationIsAuthorized) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.444332364.1746838827", "google-analytics.com",
                 1));
  log.requests.push_back(
      request("https://www.google-analytics.com/collect?cid=444332364",
              "google-analytics.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 0);
}

TEST_F(AnalyzerTest, AmbiguousSegmentsNeverMatch) {
  // Two different cookies share a timestamp segment: matching it would be a
  // false positive, so the analyzer drops it.
  auto log = base_log();
  log.script_sets.push_back(
      set_record("a", "xx.1746838827", "a-owner.com", 1));
  log.script_sets.push_back(
      set_record("b", "yy.1746838827", "b-owner.com", 2));
  log.requests.push_back(
      request("https://collector.com/c?t=1746838827", "reader.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 0);
}

TEST_F(AnalyzerTest, CandidateMatchingIsInsertionOrderInvariant) {
  // Regression for the cglint D3 finding at analyzer.cpp:206: the candidate
  // identifier index must not leak container iteration order into results.
  // Two cookies set at the SAME virtual time are ingested in both vector
  // orders (stable_sort preserves them), so the candidate index is populated
  // in a different order each run; every observable output must agree —
  // including the ambiguity verdict for the segment their values share.
  const auto a = set_record("a_id", "shared.4443323641746", "a-owner.com", 1);
  const auto b = set_record("b_id", "shared.8683084998459", "b-owner.com", 1);
  const auto exfil_a = request(
      "https://collector.example/p?x=4443323641746", "reader.com", 5);
  const auto exfil_shared =
      request("https://collector.example/p?s=shared", "reader.com", 6);

  Analyzer first(entities::EntityMap::builtin());
  Analyzer second(entities::EntityMap::builtin());
  {
    auto log = base_log();
    log.script_sets = {a, b};
    log.requests = {exfil_a, exfil_shared};
    first.ingest(log);
  }
  {
    auto log = base_log();
    log.script_sets = {b, a};
    log.requests = {exfil_a, exfil_shared};
    second.ingest(log);
  }

  EXPECT_EQ(first.totals().sites_doc_exfil, second.totals().sites_doc_exfil);
  EXPECT_EQ(first.totals().script_set_events,
            second.totals().script_set_events);
  ASSERT_EQ(first.pairs().size(), second.pairs().size());
  auto it1 = first.pairs().begin();
  auto it2 = second.pairs().begin();
  for (; it1 != first.pairs().end(); ++it1, ++it2) {
    EXPECT_EQ(it1->first, it2->first);
    EXPECT_EQ(it1->second.sites_set, it2->second.sites_set);
    EXPECT_EQ(it1->second.exfiltrator_entities,
              it2->second.exfiltrator_entities);
    EXPECT_EQ(it1->second.destination_entities,
              it2->second.destination_entities);
  }
  // The distinct segment matched; the shared one was ambiguous in BOTH runs
  // (regardless of which cookie claimed it first).
  EXPECT_TRUE(first.pairs().at({"a_id", "a-owner.com"}).exfiltrated());
  EXPECT_FALSE(first.pairs().at({"b_id", "b-owner.com"}).exfiltrated());
  EXPECT_FALSE(second.pairs().at({"b_id", "b-owner.com"}).exfiltrated());
}

TEST_F(AnalyzerTest, ShortSegmentsIgnored) {
  auto log = base_log();
  log.script_sets.push_back(set_record("theme", "dark", "a.com", 1));
  log.requests.push_back(
      request("https://c.com/c?theme=dark", "reader.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 0);
}

TEST_F(AnalyzerTest, CookieStoreActionsTrackedSeparately) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("keep_alive", "aaaabbbbcccc", "shopifycloud.com", 1,
                 CookieChange::Type::kCreated, CookieSource::kCookieStore));
  log.requests.push_back(request(
      "https://bat.bing.com/action?ka=aaaabbbbcccc", "bing.com", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_store_exfil, 1);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 0);
  EXPECT_EQ(analyzer_.pair_count(CookieSource::kCookieStore), 1);
  EXPECT_EQ(analyzer_.exfiltrated_pair_count(CookieSource::kCookieStore), 1);
}

TEST_F(AnalyzerTest, HttpFirstPartySetEstablishesOwnership) {
  auto log = base_log();
  instrument::HttpCookieSetRecord http;
  http.cookie_name = "srv_uid";
  http.value = "deadbeefcafe1234";
  http.response_host = "www.example.com";
  http.setter_domain = "example.com";
  http.first_party = true;
  http.time = 1;
  log.http_sets.push_back(http);
  log.requests.push_back(request(
      "https://sync.ads.net/s?u=deadbeefcafe1234", "adsvendor.net", 5));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_doc_exfil, 1);
  EXPECT_TRUE(analyzer_.pairs().count({"srv_uid", "example.com"}));
}

TEST_F(AnalyzerTest, HttpOnlyHeaderCookiesOutOfScope) {
  auto log = base_log();
  instrument::HttpCookieSetRecord http;
  http.cookie_name = "sid";
  http.value = "secretsecret1234";
  http.setter_domain = "example.com";
  http.first_party = true;
  http.http_only = true;
  http.time = 1;
  log.http_sets.push_back(http);
  analyzer_.ingest(log);
  EXPECT_TRUE(analyzer_.pairs().empty());
}

TEST_F(AnalyzerTest, InlineSetterFoldedIntoFirstParty) {
  auto log = base_log();
  log.script_sets.push_back(set_record("x", "0123456789abcdef", "", 1));
  analyzer_.ingest(log);
  EXPECT_TRUE(analyzer_.pairs().count({"x", "example.com"}));
  EXPECT_EQ(analyzer_.totals().attribution_unknown, 1);
}

TEST_F(AnalyzerTest, OverwriteAttributeDiffsAggregated) {
  auto log = base_log();
  log.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "a.com", 1));
  auto over = set_record("k", "bbbbbbbbbbbb", "b.com", 2,
                         CookieChange::Type::kOverwritten);
  over.value_changed = true;
  over.expires_changed = true;
  log.script_sets.push_back(over);
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().cross_overwrites, 1);
  EXPECT_EQ(analyzer_.totals().overwrite_value_changed, 1);
  EXPECT_EQ(analyzer_.totals().overwrite_expires_changed, 1);
  EXPECT_EQ(analyzer_.totals().overwrite_domain_changed, 0);
}

TEST_F(AnalyzerTest, RankingsSortByEntityCounts) {
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.1.444332364.1746838827", "googletagmanager.com",
                 1));
  log.script_sets.push_back(
      set_record("_mk", "id8765432187654321", "marketo.net", 2));
  // _ga exfiltrated to two destinations, _mk to one.
  log.requests.push_back(request(
      "https://bat.bing.com/a?g=444332364", "bing.com", 5));
  log.requests.push_back(request(
      "https://mc.yandex.ru/watch?g=444332364", "yandex.ru", 6));
  log.requests.push_back(request(
      "https://track.hubspot.com/p?m=id8765432187654321", "hubspot.com", 7));
  analyzer_.ingest(log);
  const auto top = analyzer_.top_exfiltrated(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].pair.name, "_ga");
  EXPECT_EQ(top[0].stats->destination_entities.size(), 2u);
  const auto domains = analyzer_.top_exfiltrator_domains(10);
  ASSERT_EQ(domains.size(), 3u);
  EXPECT_EQ(domains[0].second, 1);
}

TEST_F(AnalyzerTest, PairUniquenessAcrossSites) {
  // The same (name, owner) pair on two sites stays one pair; the same name
  // with a different owner is a second pair (footnote 2 of the paper).
  for (int i = 0; i < 2; ++i) {
    auto log = base_log();
    log.script_sets.push_back(set_record(
        "_ga", "GA1.1.123412341234.1", "googletagmanager.com", 1));
    analyzer_.ingest(log);
  }
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_ga", "GA1.2.432143214321.1", "google-analytics.com", 1));
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.pair_count(CookieSource::kDocumentCookie), 2);
  EXPECT_EQ(analyzer_.pairs()
                .at({"_ga", "googletagmanager.com"})
                .sites_set,
            2);
}

TEST_F(AnalyzerTest, DomPilotCountsSitesOnce) {
  auto log = base_log();
  log.dom_mods.push_back({"ads.com", "widgets.com"});
  log.dom_mods.push_back({"other.com", "example.com"});
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().sites_with_cross_dom_modification, 1);
}

TEST_F(AnalyzerTest, AttributionAccuracyBookkeeping) {
  auto log = base_log();
  auto good = set_record("a", "aaaaaaaaaaaa", "right.com", 1);
  good.true_domain = "right.com";
  auto bad = set_record("b", "bbbbbbbbbbbb", "helper.com", 2);
  bad.true_domain = "actual.com";
  log.script_sets.push_back(good);
  log.script_sets.push_back(bad);
  analyzer_.ingest(log);
  EXPECT_EQ(analyzer_.totals().attributed_sets, 2);
  EXPECT_EQ(analyzer_.totals().attribution_correct, 1);
}

TEST(TopCountsTest, SortsByCountThenName) {
  const std::map<std::string, int> counts = {
      {"b", 5}, {"a", 5}, {"c", 9}, {"d", 1}};
  const auto top = top_counts(counts, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "c");
  EXPECT_EQ(top[1].first, "a");
  EXPECT_EQ(top[2].first, "b");
}

}  // namespace
}  // namespace cg::analysis

// Appended: §5.5 tracking-lifespan extension analysis.
namespace cg::analysis {
namespace {

TEST(LifespanTest, ExpiryExtensionTracked) {
  Analyzer analyzer(entities::EntityMap::builtin());
  auto log = base_log();
  log.script_sets.push_back(set_record("_fbp", "fb.1.174.868308499845",
                                       "facebook.net", 1));
  auto over = set_record("_fbp", "fb.2.175.999999999999", "pubmatic.com", 2,
                         CookieChange::Type::kOverwritten);
  over.expires_changed = true;
  over.prev_expires = 1746748800000;                       // +0 days
  over.new_expires = 1746748800000 + 30LL * 86400000;      // +30 days
  log.script_sets.push_back(over);
  analyzer.ingest(log);

  const auto& t = analyzer.totals();
  EXPECT_EQ(t.overwrite_expiry_extended, 1);
  EXPECT_EQ(t.overwrite_expiry_shortened, 0);
  EXPECT_NEAR(t.expiry_days_added, 30.0, 0.01);
}

TEST(LifespanTest, ShorteningCountedSeparately) {
  Analyzer analyzer(entities::EntityMap::builtin());
  auto log = base_log();
  log.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "a.com", 1));
  auto over = set_record("k", "bbbbbbbbbbbb", "b.com", 2,
                         CookieChange::Type::kOverwritten);
  over.expires_changed = true;
  over.prev_expires = 2000000000000;
  over.new_expires = 1900000000000;
  log.script_sets.push_back(over);
  analyzer.ingest(log);
  EXPECT_EQ(analyzer.totals().overwrite_expiry_extended, 0);
  EXPECT_EQ(analyzer.totals().overwrite_expiry_shortened, 1);
}

TEST(LifespanTest, SessionCookiesExcluded) {
  Analyzer analyzer(entities::EntityMap::builtin());
  auto log = base_log();
  log.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "a.com", 1));
  auto over = set_record("k", "bbbbbbbbbbbb", "b.com", 2,
                         CookieChange::Type::kOverwritten);
  over.expires_changed = true;
  over.prev_expires = 0;  // session cookie before: no defined lifetime delta
  over.new_expires = 2000000000000;
  log.script_sets.push_back(over);
  analyzer.ingest(log);
  EXPECT_EQ(analyzer.totals().overwrite_expiry_extended, 0);
  EXPECT_EQ(analyzer.totals().overwrite_expiry_shortened, 0);
}

}  // namespace
}  // namespace cg::analysis

// Appended: the fold/merge algebra behind batch analysis and the serving
// tier (analysis/fold.h).
namespace cg::analysis {
namespace {

TEST(FoldTest, FoldVisitIsPure) {
  auto log = base_log();
  log.script_sets.push_back(set_record("_ga", "GA1.2.1234567890",
                                       "google-analytics.com", 1));
  const auto& entities = entities::EntityMap::builtin();
  const SiteSummary a = fold_visit(entities, {}, log);
  const SiteSummary b = fold_visit(entities, {}, log);
  EXPECT_EQ(a.totals.script_set_events, b.totals.script_set_events);
  EXPECT_EQ(a.pairs.size(), b.pairs.size());
  EXPECT_EQ(a.setter_script_urls, b.setter_script_urls);
}

TEST(FoldTest, MergeKeepsFirstSettersCreationApi) {
  const auto& entities = entities::EntityMap::builtin();
  // Site 1 creates the pair via document.cookie; site 2 re-creates the same
  // (name, owner) pair via cookieStore. First-setter-wins: the merged pair
  // stays a document.cookie creation, with both sites counted.
  auto first = base_log();
  first.script_sets.push_back(set_record("k", "aaaaaaaaaaaa", "owner.com", 1));
  auto second = base_log();
  second.site = "other.com";
  second.site_host = "www.other.com";
  second.script_sets.push_back(
      set_record("k", "bbbbbbbbbbbb", "owner.com", 1,
                 cookies::CookieChange::Type::kCreated,
                 CookieSource::kCookieStore));

  SiteSummary merged = fold_visit(entities, {}, first);
  merged.merge(fold_visit(entities, {}, second));

  const CookiePair pair{"k", "owner.com"};
  ASSERT_TRUE(merged.pairs.count(pair));
  EXPECT_EQ(merged.pairs.at(pair).created_via,
            CookieSource::kDocumentCookie);
  EXPECT_EQ(merged.pairs.at(pair).sites_set, 2);
  // And merging in the opposite order keeps the *other* first setter.
  SiteSummary reversed = fold_visit(entities, {}, second);
  reversed.merge(fold_visit(entities, {}, first));
  EXPECT_EQ(reversed.pairs.at(pair).created_via,
            CookieSource::kCookieStore);
}

TEST(FoldTest, MergeRecomputesUniqueSetterScriptsExactly) {
  const auto& entities = entities::EntityMap::builtin();
  // The same setter URL appears on both sites: the summed upper bound would
  // say 2; the merged set must say 1.
  auto first = base_log();
  first.script_sets.push_back(set_record("a", "aaaaaaaaaaaa", "cdn.com", 1));
  auto second = base_log();
  second.site = "other.com";
  second.site_host = "www.other.com";
  second.script_sets.push_back(set_record("b", "bbbbbbbbbbbb", "cdn.com", 1));

  SiteSummary merged = fold_visit(entities, {}, first);
  merged.merge(fold_visit(entities, {}, second));
  EXPECT_EQ(merged.setter_script_urls.size(), 1u);
  EXPECT_EQ(merged.totals.unique_setter_scripts, 1);
}

TEST(FoldTest, AnalyzerIngestEqualsFoldMerge) {
  const auto& entities = entities::EntityMap::builtin();
  auto first = base_log();
  first.script_sets.push_back(set_record("x", "aaaaaaaaaaaa", "a.com", 1));
  auto second = base_log();
  second.site = "other.com";
  second.site_host = "www.other.com";
  second.script_sets.push_back(set_record("y", "bbbbbbbbbbbb", "b.com", 1));

  Analyzer sequential(entities);
  sequential.ingest(first);
  sequential.ingest(second);

  Analyzer applied(entities);
  SiteSummary folded = fold_visit(entities, {}, first);
  folded.merge(fold_visit(entities, {}, second));
  applied.apply(std::move(folded));

  EXPECT_EQ(sequential.totals().sites_crawled,
            applied.totals().sites_crawled);
  EXPECT_EQ(sequential.totals().script_set_events,
            applied.totals().script_set_events);
  EXPECT_EQ(sequential.pairs().size(), applied.pairs().size());
  EXPECT_EQ(sequential.domains().size(), applied.domains().size());
}

}  // namespace
}  // namespace cg::analysis

// ---------------------------------------------------------------------------
// Differential fold test: fold_visit against the fold it replaced, kept here
// verbatim as the oracle. Two edits only: extract_identifier_segments now
// returns views, so the oracle's string-keyed candidate map converts them
// with std::string(segment).
namespace cg::analysis {
namespace {

using Type = cookies::CookieChange::Type;

struct TimelineEvent {
  TimeMillis time;
  bool from_http;
  const instrument::ScriptCookieSetRecord* script = nullptr;
  const instrument::HttpCookieSetRecord* http = nullptr;
};

SiteSummary reference_fold_visit(const entities::EntityMap& entities,
                                 const AnalyzerOptions& options,
                                 const instrument::VisitLog& log) {
  SiteSummary out;
  Totals& totals = out.totals;
  ++totals.sites_crawled;

  // Timings are collected for every crawled site (Table 4 uses all visits).
  totals.dom_content_loaded.push_back(log.landing_timings.dom_content_loaded);
  totals.dom_interactive.push_back(log.landing_timings.dom_interactive);
  totals.load_event.push_back(log.landing_timings.load_event);

  // ---- §5.1 third-party prevalence ------------------------------------
  // The paper reports these over all 20,000 sites, not just the 14,917 with
  // complete logs.
  std::set<std::string> tp_script_urls;
  std::set<std::string> tp_ad_tracking_urls;
  for (const auto& inc : log.includes) {
    if (inc.is_inline || inc.domain.empty() || inc.domain == log.site) {
      continue;
    }
    tp_script_urls.insert(inc.url);
    if (script::is_ad_or_tracking(inc.category)) {
      tp_ad_tracking_urls.insert(inc.url);
    }
    if (inc.inclusion == script::Inclusion::kDirect) {
      ++totals.direct_inclusions;
    } else {
      ++totals.indirect_inclusions;
      if (script::is_ad_or_tracking(inc.category)) {
        ++totals.indirect_ad_tracking;
      }
    }
  }
  if (!tp_script_urls.empty()) ++totals.sites_with_third_party;
  totals.third_party_script_count +=
      static_cast<long long>(tp_script_urls.size());
  totals.third_party_ad_tracking_count +=
      static_cast<long long>(tp_ad_tracking_urls.size());

  if (!log.complete()) return out;
  ++totals.sites_complete;

  // ---- §5.2 API usage -----------------------------------------------------
  bool uses_document_cookie = false;
  bool uses_cookie_store = false;
  for (const auto& read : log.reads) {
    if (read.api == CookieSource::kDocumentCookie) uses_document_cookie = true;
    if (read.api == CookieSource::kCookieStore) uses_cookie_store = true;
  }
  for (const auto& set : log.script_sets) {
    if (set.api == CookieSource::kDocumentCookie) uses_document_cookie = true;
    if (set.api == CookieSource::kCookieStore) uses_cookie_store = true;
  }
  if (uses_document_cookie) ++totals.sites_using_document_cookie;
  if (uses_cookie_store) ++totals.sites_using_cookie_store;

  // ---- ownership timeline (§4.3 steps 1-2) ------------------------------
  // Merge script and HTTP set events by time. The FIRST setter of a name
  // owns the pair; later actions by other script domains are cross-domain.
  std::vector<TimelineEvent> events;
  events.reserve(log.script_sets.size() + log.http_sets.size());
  for (const auto& s : log.script_sets) {
    events.push_back({s.time, false, &s, nullptr});
  }
  for (const auto& h : log.http_sets) {
    if (!h.first_party) continue;  // third-party response cookies: out of scope
    events.push_back({h.time, true, nullptr, &h});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     return a.time < b.time;
                   });

  // name -> (owner domain, creating api). Inline/unknown setters are folded
  // into the first party, as the paper does for inline scripts.
  std::map<std::string, std::pair<std::string, CookieSource>> owner;
  // Candidate identifiers: encoded form -> owning pair (for exfiltration).
  // Ordered map (cglint D3): lookups dominate, but nothing downstream may
  // ever depend on hash-table iteration order.
  std::map<std::string, CookiePair> candidates;
  std::set<CookiePair> pairs_this_visit;

  // A candidate segment seen in the values of two *different* pairs (e.g. a
  // shared timestamp) identifies neither — mark it ambiguous and never match
  // it. The sentinel has an empty name.
  static const CookiePair kAmbiguous{};
  auto add_candidate = [&](std::string encoded, const CookiePair& pair) {
    auto [it, inserted] = candidates.try_emplace(std::move(encoded), pair);
    if (!inserted && it->second != pair) it->second = kAmbiguous;
  };
  auto add_candidates = [&](const CookiePair& pair, const std::string& value) {
    for (const auto& segment : script::extract_identifier_segments(value)) {
      add_candidate(std::string(segment), pair);
      if (options.match_encoded_identifiers) {
        add_candidate(crypto::base64_encode(segment), pair);
        add_candidate(crypto::Md5::hex(segment), pair);
        add_candidate(crypto::Sha1::hex(segment), pair);
      }
    }
  };

  auto record_pair = [&](const CookiePair& pair, CookieSource via) {
    auto [it, inserted] = out.pairs.try_emplace(pair);
    if (inserted) it->second.created_via = via;
    if (pairs_this_visit.insert(pair).second) ++it->second.sites_set;
  };

  std::set<std::string> cross_over_apis;  // "doc" / "store" flags per site
  std::set<std::string> cross_del_apis;

  for (const auto& event : events) {
    if (event.from_http) {
      const auto& h = *event.http;
      if (h.http_only) continue;  // invisible to scripts, out of scope
      const auto it = owner.find(h.cookie_name);
      if (it == owner.end()) {
        if (h.change_type == Type::kCreated ||
            h.change_type == Type::kOverwritten) {
          owner[h.cookie_name] = {h.setter_domain, CookieSource::kHttpHeader};
          const CookiePair pair{h.cookie_name, h.setter_domain};
          record_pair(pair, CookieSource::kHttpHeader);
          add_candidates(pair, h.value);
        }
      } else if (h.change_type == Type::kOverwritten ||
                 h.change_type == Type::kCreated) {
        // Header re-sets re-attribute ownership to the response site but are
        // NOT counted as cross-domain manipulations (§9: header actions are
        // out of scope).
        add_candidates({h.cookie_name, it->second.first}, h.value);
      }
      continue;
    }

    const auto& s = *event.script;
    ++totals.script_set_events;
    if (!s.setter_url.empty()) out.setter_script_urls.insert(s.setter_url);

    // Attribution accuracy bookkeeping (ground truth vs stack-derived).
    ++totals.attributed_sets;
    if (s.setter_domain.empty()) {
      ++totals.attribution_unknown;
    } else if (s.setter_domain == s.true_domain) {
      ++totals.attribution_correct;
    }

    // Fold inline/unknown setters into the first party.
    const std::string actor =
        s.setter_domain.empty() ? log.site : s.setter_domain;
    const bool actor_is_tp = actor != log.site;

    const auto it = owner.find(s.cookie_name);
    if (it == owner.end()) {
      if (s.change_type == Type::kCreated ||
          s.change_type == Type::kOverwritten) {
        owner[s.cookie_name] = {actor, s.api};
        const CookiePair pair{s.cookie_name, actor};
        record_pair(pair, s.api);
        add_candidates(pair, s.value);
        if (actor_is_tp) {
          ++totals.tp_cookies_set;
        } else {
          ++totals.fp_cookies_set;
        }
      }
      continue;
    }

    const std::string& owning_domain = it->second.first;
    const CookiePair pair{s.cookie_name, owning_domain};
    const std::string api_tag =
        s.api == CookieSource::kCookieStore ? "store" : "doc";

    if (actor == owning_domain) {
      // Same-domain refresh: extend candidates with the new value.
      if (s.change_type != Type::kDeleted) add_candidates(pair, s.value);
      if (s.change_type == Type::kDeleted) owner.erase(it);
      continue;
    }

    // Cross-domain action (§4.3 step 3).
    if (s.change_type == Type::kOverwritten) {
      auto& stats = out.pairs[pair];
      ++stats.overwriter_entities[entities.entity_for(actor)];
      out.domains[actor].overwritten_pairs.insert(pair);
      cross_over_apis.insert(api_tag);
      ++totals.cross_overwrites;
      totals.overwrite_value_changed += s.value_changed ? 1 : 0;
      totals.overwrite_expires_changed += s.expires_changed ? 1 : 0;
      totals.overwrite_domain_changed += s.domain_changed ? 1 : 0;
      totals.overwrite_path_changed += s.path_changed ? 1 : 0;
      if (s.expires_changed && s.prev_expires > 0 && s.new_expires > 0) {
        if (s.new_expires > s.prev_expires) {
          ++totals.overwrite_expiry_extended;
          totals.expiry_days_added +=
              static_cast<double>(s.new_expires - s.prev_expires) / 86400000.0;
        } else {
          ++totals.overwrite_expiry_shortened;
        }
      }
      // Ownership stays with the original creator; new value becomes a
      // candidate for the overwriter's later requests too.
      add_candidates(pair, s.value);
    } else if (s.change_type == Type::kDeleted) {
      auto& stats = out.pairs[pair];
      ++stats.deleter_entities[entities.entity_for(actor)];
      out.domains[actor].deleted_pairs.insert(pair);
      cross_del_apis.insert(api_tag);
      owner.erase(it);
    } else if (s.change_type == Type::kCreated) {
      // Re-creation after expiry/deletion: a fresh pair owned by the actor.
      owner[s.cookie_name] = {actor, s.api};
      const CookiePair fresh{s.cookie_name, actor};
      record_pair(fresh, s.api);
      add_candidates(fresh, s.value);
    }
  }

  if (cross_over_apis.count("doc") != 0) ++totals.sites_doc_overwrite;
  if (cross_over_apis.count("store") != 0) ++totals.sites_store_overwrite;
  if (cross_del_apis.count("doc") != 0) ++totals.sites_doc_delete;
  if (cross_del_apis.count("store") != 0) ++totals.sites_store_delete;

  // ---- cookieStore usage details ----------------------------------------
  for (const auto& s : log.script_sets) {
    if (s.api != CookieSource::kCookieStore) continue;
    totals.store_cookie_names.insert(s.cookie_name);
    ++totals.store_setting_scripts;
    if (!s.setter_domain.empty()) {
      totals.store_script_domains.insert(s.setter_domain);
    }
  }

  // ---- exfiltration detection (§4.3) -------------------------------------
  bool site_doc_exfil = false;
  bool site_store_exfil = false;
  for (const auto& request : log.requests) {
    const std::string initiator = request.initiator_domain.empty()
                                      ? log.site
                                      : request.initiator_domain;
    const auto query_pos = request.url.find('?');
    if (query_pos == std::string::npos) continue;
    const auto params = net::parse_query(request.url.substr(query_pos + 1));
    for (const auto& param : params) {
      for (const auto& segment :
           script::extract_identifier_segments(param.value)) {
        const auto hit = candidates.find(std::string(segment));
        if (hit == candidates.end()) continue;
        const CookiePair& pair = hit->second;
        if (pair.name.empty()) continue;  // ambiguous segment
        if (pair.owner_domain == initiator) continue;  // authorized
        auto& stats = out.pairs[pair];
        ++stats.exfiltrator_entities[entities.entity_for(initiator)];
        ++stats.destination_entities[entities.entity_for(
            request.dest_domain)];
        out.domains[initiator].exfiltrated_pairs.insert(pair);
        if (stats.created_via == CookieSource::kCookieStore) {
          site_store_exfil = true;
        } else {
          site_doc_exfil = true;
        }
      }
    }
  }
  if (site_doc_exfil) ++totals.sites_doc_exfil;
  if (site_store_exfil) ++totals.sites_store_exfil;

  // ---- §8 DOM pilot --------------------------------------------------------
  for (const auto& mod : log.dom_mods) {
    if (mod.modifier_domain != log.site) {
      ++totals.sites_with_cross_dom_modification;
      break;
    }
  }

  totals.unique_setter_scripts =
      static_cast<long long>(out.setter_script_urls.size());
  if (options.totals_only) {
    out.pairs.clear();
    out.domains.clear();
    out.setter_script_urls.clear();
    totals.unique_setter_scripts = 0;
  }
  return out;
}

// Everything a SiteSummary holds, as text: totals (timing vectors in full),
// every pair with its four entity-count maps, every domain's pair sets and
// the setter URLs.
std::string dump(const SiteSummary& s) {
  std::ostringstream out;
  out << report::totals_to_json(s.totals).dump() << '\n';
  const auto print_times = [&](const std::vector<TimeMillis>& times) {
    for (const TimeMillis t : times) out << t << ',';
    out << '\n';
  };
  print_times(s.totals.dom_content_loaded);
  print_times(s.totals.dom_interactive);
  print_times(s.totals.load_event);
  out << s.totals.expiry_days_added << '\n';
  const auto print_counts = [&](const char* label,
                                const std::map<std::string, int>& counts) {
    out << ' ' << label << ':';
    for (const auto& [entity, n] : counts) out << entity << '=' << n << ',';
  };
  for (const auto& [pair, stats] : s.pairs) {
    out << pair.name << '|' << pair.owner_domain << " via "
        << static_cast<int>(stats.created_via) << " sites " << stats.sites_set;
    print_counts("exfil", stats.exfiltrator_entities);
    print_counts("dest", stats.destination_entities);
    print_counts("over", stats.overwriter_entities);
    print_counts("del", stats.deleter_entities);
    out << '\n';
  }
  const auto print_pairs = [&](const char* label,
                               const std::set<CookiePair>& pairs) {
    out << ' ' << label << ':';
    for (const auto& p : pairs) out << p.name << '|' << p.owner_domain << ',';
  };
  for (const auto& [domain, stats] : s.domains) {
    out << domain;
    print_pairs("exfil", stats.exfiltrated_pairs);
    print_pairs("over", stats.overwritten_pairs);
    print_pairs("del", stats.deleted_pairs);
    out << '\n';
  }
  for (const auto& url : s.setter_script_urls) out << url << '\n';
  return out.str();
}

std::string summary_json(SiteSummary summary) {
  Analyzer analyzer(entities::EntityMap::builtin());
  analyzer.apply(std::move(summary));
  return report::summary_to_json(analyzer, 1u << 20).dump();
}

// Requires fold_visit == reference_fold_visit on `log` and returns the fold.
SiteSummary expect_same_fold(const AnalyzerOptions& options,
                             const VisitLog& log) {
  const auto& entities = entities::EntityMap::builtin();
  SiteSummary folded = fold_visit(entities, options, log);
  const SiteSummary reference = reference_fold_visit(entities, options, log);
  EXPECT_EQ(dump(folded), dump(reference)) << "rank " << log.rank;
  return folded;
}

std::vector<AnalyzerOptions> all_option_sets() {
  AnalyzerOptions raw_only;
  raw_only.match_encoded_identifiers = false;
  AnalyzerOptions totals_only;
  totals_only.totals_only = true;
  return {AnalyzerOptions{}, raw_only, totals_only};
}

TEST(FoldDifferentialTest, EqualsReferenceFoldOnSeededCorpora) {
  const auto& entities = entities::EntityMap::builtin();
  for (const std::uint64_t seed : {0xC00C1EULL, 0xF01DULL, 0x5EED5ULL}) {
    corpus::CorpusParams params;
    params.site_count = 300;
    params.seed = seed;
    const corpus::Corpus corpus(params);
    std::vector<VisitLog> logs;
    crawler::Crawler crawler(corpus);
    crawler::CrawlOptions crawl_options;
    crawl_options.threads = 0;
    crawler.crawl(corpus.size(), crawl_options,
                  [&](VisitLog&& log) { logs.push_back(std::move(log)); });
    ASSERT_EQ(logs.size(), 300u);
    for (const AnalyzerOptions& options : all_option_sets()) {
      SiteSummary merged;
      SiteSummary merged_reference;
      int exfiltrating_sites = 0;
      for (const VisitLog& log : logs) {
        SiteSummary folded = expect_same_fold(options, log);
        SiteSummary reference = reference_fold_visit(entities, options, log);
        EXPECT_EQ(summary_json(folded), summary_json(reference))
            << "rank " << log.rank;
        exfiltrating_sites += folded.totals.sites_doc_exfil;
        merged.merge(std::move(folded));
        merged_reference.merge(std::move(reference));
      }
      // The corpus exercises matching, or the comparison shows nothing.
      EXPECT_GT(exfiltrating_sites, 0) << "seed " << seed;
      EXPECT_EQ(dump(merged), dump(merged_reference)) << "seed " << seed;
      EXPECT_EQ(summary_json(std::move(merged)),
                summary_json(std::move(merged_reference)))
          << "seed " << seed;
    }
  }
}

TEST(FoldDifferentialTest, RawValueEqualToAnotherPairsMd5IsAmbiguous) {
  // Pair a's segment hashes (MD5) to pair b's raw value: that text reaches
  // two pairs across encodings, so it identifies neither.
  const std::string id = "868308499845957651";
  auto log = base_log();
  log.script_sets.push_back(set_record("a", "fb.1." + id, "a-owner.com", 1));
  log.script_sets.push_back(
      set_record("b", crypto::Md5::hex(id), "b-owner.com", 2));
  log.requests.push_back(request(
      "https://collector.example/p?h=" + crypto::Md5::hex(id), "reader.com",
      5));
  for (const AnalyzerOptions& options : all_option_sets()) {
    const SiteSummary folded = expect_same_fold(options, log);
    // Raw-only matching never forms a's MD5, so the text is b's alone.
    const bool b_alone = !options.match_encoded_identifiers;
    EXPECT_EQ(folded.totals.sites_doc_exfil, b_alone ? 1 : 0);
  }
  // a's raw segment still reaches a alone.
  log.requests.push_back(
      request("https://collector.example/p?id=" + id, "reader.com", 6));
  const SiteSummary folded = expect_same_fold({}, log);
  EXPECT_TRUE(folded.pairs.at({"a", "a-owner.com"}).exfiltrated());
  EXPECT_FALSE(folded.pairs.at({"b", "b-owner.com"}).exfiltrated());
}

TEST(FoldDifferentialTest, SameDomainRefreshKeepsItsSegmentUnambiguous) {
  // The owner re-sets the same value: the (segment, pair) candidate is
  // offered twice, but one pair reaches it, so it still matches — once per
  // request that carries it.
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_t", "v1.4443323641746", "tracker.com", 1));
  log.script_sets.push_back(set_record("_t", "v1.4443323641746",
                                       "tracker.com", 2,
                                       CookieChange::Type::kOverwritten));
  log.requests.push_back(request(
      "https://collector.example/p?x=4443323641746", "reader.com", 5));
  log.requests.push_back(request(
      "https://collector.example/p?y=4443323641746", "reader.com", 6));
  for (const AnalyzerOptions& options : all_option_sets()) {
    const SiteSummary folded = expect_same_fold(options, log);
    EXPECT_EQ(folded.totals.sites_doc_exfil, 1);
    if (options.totals_only) continue;
    const PairStats& stats = folded.pairs.at({"_t", "tracker.com"});
    EXPECT_EQ(stats.sites_set, 1);
    EXPECT_EQ(stats.exfiltrator_entities.at("reader.com"), 2);
  }
}

TEST(FoldDifferentialTest, PercentAndPlusEncodedValuesAreFormDecoded) {
  // Parameter values are form-decoded before segmenting: "%2E" becomes '.'
  // and "%39" becomes '9' ('+' becomes a space). Undecoded, neither value
  // yields its identifier as a segment.
  auto log = base_log();
  log.script_sets.push_back(
      set_record("_a", "GA1.1.444332364.1746838827", "tag.com", 1));
  log.script_sets.push_back(
      set_record("_b", "fb.0.1746746266109.868308499845957651", "fb.com", 2));
  log.requests.push_back(request(
      "https://collector.example/p?cid=GA1%2E1%2E444332364", "reader.com", 5));
  log.requests.push_back(request(
      "https://collector.example/p?v=fb+86830849%39845957651&t=x", "other.com",
      6));
  for (const AnalyzerOptions& options : all_option_sets()) {
    const SiteSummary folded = expect_same_fold(options, log);
    EXPECT_EQ(folded.totals.sites_doc_exfil, 1);
    if (options.totals_only) continue;
    EXPECT_TRUE(folded.pairs.at({"_a", "tag.com"}).exfiltrated());
    EXPECT_TRUE(folded.pairs.at({"_b", "fb.com"}).exfiltrated());
  }
}

}  // namespace
}  // namespace cg::analysis
