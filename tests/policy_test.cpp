// Policy-semantics tests for the pluggable cookie-partitioning engines
// (src/policy/): engine decisions in isolation, end-to-end behaviour through
// the browser's partitioned jar store, the determinism contract per policy,
// and the golden pin that `--policy none` is byte-identical to the
// pre-policy simulator.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "browser/page.h"
#include "cookieguard/cookieguard.h"
#include "crawler/crawler.h"
#include "obs/metrics.h"
#include "policy/partition_policy.h"
#include "report/report.h"
#include "test_support.h"

namespace cg {
namespace {

using policy::CookieAccessContext;
using policy::PolicyKind;
using testsupport::TestSite;
using testsupport::context_for_url;

CookieAccessContext ctx_for(std::string top_level_site, const char* subject,
                            bool cross_site,
                            cookies::JarApi api = cookies::JarApi::kScript) {
  CookieAccessContext ctx;
  ctx.top_level_site = std::move(top_level_site);
  ctx.subject_url = net::Url::must_parse(subject);
  ctx.cross_site = cross_site;
  ctx.api = api;
  return ctx;
}

// ------------------------------------------------------ engine decisions --

TEST(PolicyKindTest, NamesRoundTripThroughParse) {
  for (const auto kind :
       {PolicyKind::kNone, PolicyKind::kCookieGuard,
        PolicyKind::kFirstPartyIsolation, PolicyKind::kChips}) {
    const auto parsed = policy::parse_policy(policy::to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    EXPECT_EQ(policy::engine_for(kind).kind(), kind);
  }
  EXPECT_FALSE(policy::parse_policy("firefox").has_value());
  EXPECT_FALSE(policy::parse_policy("").has_value());
}

TEST(PolicyEngineTest, EnginesAreSharedSingletons) {
  // One stateless const instance per kind (determinism contract D4): every
  // worker on every crawl must get the same object.
  for (const auto kind :
       {PolicyKind::kNone, PolicyKind::kCookieGuard,
        PolicyKind::kFirstPartyIsolation, PolicyKind::kChips}) {
    EXPECT_EQ(&policy::engine_for(kind), &policy::engine_for(kind));
  }
}

TEST(PolicyEngineTest, SingleJarBlocksCrossSiteWithoutDefenseCredit) {
  // The post-third-party-cookie baseline refuses cross-site cookies under
  // *every* engine; that refusal must not be billed to the defense.
  for (const auto kind : {PolicyKind::kNone, PolicyKind::kCookieGuard}) {
    const auto& engine = policy::engine_for(kind);
    const auto store = engine.key_for_store(
        ctx_for("shop.example", "https://cdn.tracker.com/p", true,
                cookies::JarApi::kHttp));
    EXPECT_FALSE(store.allowed);
    EXPECT_FALSE(store.defense_block);
    const auto read = engine.key_for_read(
        ctx_for("shop.example", "https://cdn.tracker.com/p", true,
                cookies::JarApi::kHttp));
    EXPECT_FALSE(read.allowed);
    EXPECT_FALSE(read.defense_block);

    const auto same_site = engine.key_for_store(
        ctx_for("shop.example", "https://www.shop.example/", false));
    ASSERT_TRUE(same_site.allowed);
    EXPECT_EQ(same_site.key, cookies::PartitionKey());  // the classic jar
    EXPECT_EQ(engine.frame_jar_scope(), policy::FrameJarScope::kPage);
  }
}

TEST(PolicyEngineTest, FpiKeysEveryAccessByFirstPartyDomain) {
  const auto& fpi = policy::engine_for(PolicyKind::kFirstPartyIsolation);
  const auto store = fpi.key_for_store(
      ctx_for("shop.example", "https://www.shop.example/", false));
  ASSERT_TRUE(store.allowed);
  EXPECT_EQ(store.key, "fpi:shop.example");

  // Cross-site embeds are not blocked — they are isolated into the
  // embedding site's partition.
  const auto embedded = fpi.key_for_store(
      ctx_for("shop.example", "https://ads.tracker.com/frame", true));
  ASSERT_TRUE(embedded.allowed);
  EXPECT_EQ(embedded.key, "fpi:shop.example");

  const auto other = fpi.key_for_store(
      ctx_for("news.example", "https://news.example/", false));
  ASSERT_TRUE(other.allowed);
  EXPECT_NE(other.key, store.key);  // separation IS the isolation

  const auto read = fpi.key_for_read(
      ctx_for("shop.example", "https://www.shop.example/", false));
  ASSERT_TRUE(read.allowed);
  EXPECT_EQ(read.keys, std::vector<cookies::PartitionKey>{"fpi:shop.example"});
  EXPECT_EQ(fpi.frame_jar_scope(), policy::FrameJarScope::kBrowser);
}

TEST(PolicyEngineTest, FpiMissingAttributeIsFirefoxVerbatimError) {
  const auto& fpi = policy::engine_for(PolicyKind::kFirstPartyIsolation);
  const auto store =
      fpi.key_for_store(ctx_for("", "https://www.shop.example/", false));
  EXPECT_FALSE(store.allowed);
  EXPECT_EQ(store.error, policy::kFpiMissingAttributeError);
  EXPECT_TRUE(store.defense_block);

  const auto read =
      fpi.key_for_read(ctx_for("", "https://www.shop.example/", false));
  EXPECT_FALSE(read.allowed);
  EXPECT_EQ(read.error, policy::kFpiMissingAttributeError);
  EXPECT_TRUE(read.defense_block);

  EXPECT_EQ(policy::kFpiMissingAttributeError,
            "First-Party Isolation is enabled, but the required "
            "'firstPartyDomain' attribute was not set.");
}

TEST(PolicyEngineTest, ChipsPartitionsByTopLevelSite) {
  const auto& chips = policy::engine_for(PolicyKind::kChips);

  // Unpartitioned first-party cookies stay in the classic jar.
  const auto plain = chips.key_for_store(
      ctx_for("shop.example", "https://www.shop.example/", false));
  ASSERT_TRUE(plain.allowed);
  EXPECT_EQ(plain.key, cookies::PartitionKey());

  // A Partitioned cookie is keyed by the top-level site, even same-site.
  auto ctx = ctx_for("shop.example", "https://www.shop.example/", false);
  ctx.partitioned_attribute = true;
  const auto partitioned = chips.key_for_store(ctx);
  ASSERT_TRUE(partitioned.allowed);
  EXPECT_EQ(partitioned.key, "chips:shop.example");

  // Cross-site, Partitioned is the only way in...
  auto embedded = ctx_for("shop.example", "https://ads.tracker.com/f", true);
  embedded.partitioned_attribute = true;
  const auto embedded_store = chips.key_for_store(embedded);
  ASSERT_TRUE(embedded_store.allowed);
  EXPECT_EQ(embedded_store.key, "chips:shop.example");

  // ...and an unpartitioned third-party script store is a defense block.
  const auto blocked = chips.key_for_store(
      ctx_for("shop.example", "https://ads.tracker.com/f", true));
  EXPECT_FALSE(blocked.allowed);
  EXPECT_EQ(blocked.error, "unpartitioned third-party cookie blocked");
  EXPECT_TRUE(blocked.defense_block);

  // The same refusal over HTTP matches the phased-out baseline: no credit.
  const auto http_blocked = chips.key_for_store(
      ctx_for("shop.example", "https://ads.tracker.com/f", true,
              cookies::JarApi::kHttp));
  EXPECT_FALSE(http_blocked.allowed);
  EXPECT_FALSE(http_blocked.defense_block);
}

TEST(PolicyEngineTest, ChipsReadScopesAndVisibility) {
  const auto& chips = policy::engine_for(PolicyKind::kChips);

  // Top-level contexts consult the classic jar plus their own partition.
  const auto top = chips.key_for_read(
      ctx_for("shop.example", "https://www.shop.example/", false));
  ASSERT_TRUE(top.allowed);
  EXPECT_EQ(top.keys, (std::vector<cookies::PartitionKey>{
                          cookies::PartitionKey(), "chips:shop.example"}));

  // Cross-site contexts see only the embedding site's partition.
  const auto embedded = chips.key_for_read(
      ctx_for("shop.example", "https://ads.tracker.com/f", true));
  ASSERT_TRUE(embedded.allowed);
  EXPECT_EQ(embedded.keys,
            std::vector<cookies::PartitionKey>{"chips:shop.example"});

  // Belt and braces: even inside a readable partition, an unpartitioned
  // cookie is invisible cross-site.
  cookies::Cookie unpartitioned;
  cookies::Cookie partitioned;
  partitioned.partitioned = true;
  const auto cross = ctx_for("shop.example", "https://ads.tracker.com/f", true);
  EXPECT_FALSE(chips.visible(unpartitioned, cross));
  EXPECT_TRUE(chips.visible(partitioned, cross));
  const auto same = ctx_for("shop.example", "https://www.shop.example/", false);
  EXPECT_TRUE(chips.visible(unpartitioned, same));
}

// ------------------------------------------- end-to-end through the page --

TEST(PolicyBrowserTest, FpiSeparatesJarsByTopLevelSite) {
  TestSite site;
  site.browser().set_policy(
      &policy::engine_for(PolicyKind::kFirstPartyIsolation));

  auto page = site.open();
  const auto ctx = context_for_url("https://www.shop.example/app.js");
  page->run_as(ctx, [&](script::PageServices& services) {
    services.document_cookie_write(ctx, "sess=shop1; Path=/");
    EXPECT_EQ(services.document_cookie_read(ctx), "sess=shop1");
  });

  // The cookie lives in the fpi partition, not the classic default jar.
  EXPECT_EQ(site.browser().jar().size(), 0u);
  const auto* shop_jar = site.browser().jar_store().find("fpi:shop.example");
  ASSERT_NE(shop_jar, nullptr);
  EXPECT_EQ(shop_jar->size(), 1u);

  // A second top-level site in the same profile gets its own partition and
  // cannot see shop.example's session.
  auto other = site.browser().navigate(
      net::Url::must_parse("https://news.example/"));
  ASSERT_TRUE(other.ok());
  const auto news_ctx = context_for_url("https://news.example/app.js");
  other->run_as(news_ctx, [&](script::PageServices& services) {
    EXPECT_EQ(services.document_cookie_read(news_ctx), "");
    services.document_cookie_write(news_ctx, "sess=news1; Path=/");
    EXPECT_EQ(services.document_cookie_read(news_ctx), "sess=news1");
  });
  ASSERT_NE(site.browser().jar_store().find("fpi:news.example"), nullptr);
  EXPECT_EQ(site.browser().jar_store().find("fpi:shop.example")->size(), 1u);
  EXPECT_EQ(site.browser().policy_stats().partitioned_stores, 2u);
}

TEST(PolicyBrowserTest, ChipsStoresPartitionedHeaderCookiesByEmbedder) {
  TestSite site;
  site.browser().set_policy(&policy::engine_for(PolicyKind::kChips));
  site.browser().network().register_host(
      "www.shop.example", [](const net::HttpRequest& req) {
        net::HttpResponse res;
        if (req.destination == net::RequestDestination::kDocument) {
          res.headers.add("Set-Cookie", "plain=1; Path=/");
          res.headers.add("Set-Cookie",
                          "__Host-pc=2; Path=/; Secure; Partitioned");
        }
        return res;
      });
  auto page = site.open();

  // The unpartitioned cookie stays in the classic jar; the Partitioned one
  // lands in the top-level site's partition.
  EXPECT_EQ(site.browser().jar().size(), 1u);
  const auto* partition = site.browser().jar_store().find("chips:shop.example");
  ASSERT_NE(partition, nullptr);
  ASSERT_EQ(partition->size(), 1u);
  EXPECT_TRUE(partition->all().at(0).partitioned);

  // A top-level script read consults both partitions.
  const auto ctx = context_for_url("https://www.shop.example/app.js");
  page->run_as(ctx, [&](script::PageServices& services) {
    EXPECT_EQ(services.document_cookie_read(ctx), "plain=1; __Host-pc=2");
  });
}

TEST(PolicyBrowserTest, ChipsReadsPartitionsInKeyOrder) {
  // A top-level CHIPS read concatenates the classic jar's §5.4 order and
  // then the partition's — it does not sort the union. p1 is the oldest
  // cookie, so one merged sort would put it first.
  TestSite site;
  site.browser().set_policy(&policy::engine_for(PolicyKind::kChips));
  std::string cookie_header;
  site.browser().network().register_host(
      "www.shop.example", [&](const net::HttpRequest& req) {
        if (req.destination == net::RequestDestination::kXhr) {
          cookie_header = req.headers.get("Cookie").value_or("");
        }
        return net::HttpResponse{};
      });
  auto page = site.open();
  const auto ctx = context_for_url("https://www.shop.example/app.js");
  page->run_as(ctx, [&](script::PageServices& services) {
    services.document_cookie_write(ctx, "p1=a; Path=/; Secure; Partitioned");
    services.document_cookie_write(ctx, "u1=b; Path=/");
    services.document_cookie_write(ctx, "p2=c; Path=/; Secure; Partitioned");
    services.document_cookie_write(ctx, "u2=d; Path=/");
    EXPECT_EQ(services.document_cookie_read(ctx), "u1=b; u2=d; p1=a; p2=c");
  });

  // The read refreshed last_access in both partitions.
  const auto* partition = site.browser().jar_store().find("chips:shop.example");
  ASSERT_NE(partition, nullptr);
  ASSERT_EQ(partition->size(), 2u);
  ASSERT_EQ(site.browser().jar().size(), 2u);
  const TimeMillis read_time = partition->all().at(0).last_access;
  EXPECT_GT(read_time, partition->all().at(0).creation_time);
  for (const auto& c : partition->all()) EXPECT_EQ(c.last_access, read_time);
  for (const auto& c : site.browser().jar().all()) {
    EXPECT_EQ(c.last_access, read_time);
  }

  // The HTTP Cookie header of a same-site request follows the same order.
  page->run_as(ctx, [&](script::PageServices& services) {
    services.send_request(ctx,
                          net::Url::must_parse("https://www.shop.example/api"));
  });
  EXPECT_EQ(cookie_header, "u1=b; u2=d; p1=a; p2=c");
}

TEST(PolicyBrowserTest, ChipsFrameStoresOnlyPartitionedCookies) {
  TestSite site;
  site.browser().set_policy(&policy::engine_for(PolicyKind::kChips));
  auto page = site.open();

  auto& frame = page->create_subframe(
      net::Url::must_parse("https://ads.tracker.com/frame.html"));
  const auto frame_ctx = context_for_url("https://ads.tracker.com/ad.js");
  page->run_in_frame(frame, frame_ctx, [&](script::PageServices& services) {
    // Unpartitioned third-party write: blocked by CHIPS (under the legacy
    // model it would have landed in the ephemeral per-page frame jar).
    services.document_cookie_write(frame_ctx, "uid=3p; Path=/");
    EXPECT_EQ(services.document_cookie_read(frame_ctx), "");
    // The CHIPS-conformant write goes through, keyed by the embedder...
    services.document_cookie_write(frame_ctx,
                                   "pid=ok; Path=/; Secure; Partitioned");
    EXPECT_EQ(services.document_cookie_read(frame_ctx), "pid=ok");
  });

  EXPECT_GE(site.browser().policy_stats().writes_blocked, 1u);
  const auto* partition = site.browser().jar_store().find("chips:shop.example");
  ASSERT_NE(partition, nullptr);
  EXPECT_EQ(partition->size(), 1u);
  EXPECT_EQ(site.browser().jar().size(), 0u);
}

TEST(PolicyBrowserTest, CookieGuardEngineJarIsIdenticalToNone) {
  // PolicyKind::kCookieGuard changes nothing below the API boundary — the
  // defense is the extension above the jar (paper §6).
  const auto run = [](PolicyKind kind) {
    TestSite site;
    site.browser().set_policy(&policy::engine_for(kind));
    auto page = site.open();
    const auto ctx = context_for_url("https://cdn.tracker.com/t.js");
    std::string seen;
    page->run_as(ctx, [&](script::PageServices& services) {
      services.document_cookie_write(ctx, "_t=ghost1; Path=/");
      seen = services.document_cookie_read(ctx);
    });
    return std::pair(seen, site.browser().jar().size());
  };
  EXPECT_EQ(run(PolicyKind::kNone), run(PolicyKind::kCookieGuard));
}

// ------------------------------------------------ crawl-level determinism --

corpus::CorpusParams small_params(int n) {
  corpus::CorpusParams params;
  params.site_count = n;
  return params;
}

std::string crawl_summary(const corpus::Corpus& corpus, PolicyKind kind,
                          int threads, obs::MetricsRegistry* metrics) {
  crawler::Crawler crawler(corpus);
  analysis::Analyzer analyzer(corpus.entities());
  crawler::CrawlOptions options;
  options.threads = threads;
  options.policy = kind;
  options.metrics = metrics;
  std::vector<std::unique_ptr<cookieguard::CookieGuard>> guards;
  if (kind == PolicyKind::kCookieGuard) {
    const int workers = threads < 1 ? 1 : threads;
    for (int w = 0; w < workers; ++w) {
      guards.push_back(std::make_unique<cookieguard::CookieGuard>());
    }
    options.extension_factory =
        [&guards](int worker) -> std::vector<browser::Extension*> {
      return {guards[static_cast<size_t>(worker)].get()};
    };
  }
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    analyzer.ingest(log);
  });
  return report::summary_to_json(analyzer, 20).dump(2);
}

TEST(PolicyCrawlTest, EveryPolicyIsByteIdenticalAcrossThreadCounts) {
  corpus::Corpus corpus(small_params(120));
  for (const auto kind :
       {PolicyKind::kNone, PolicyKind::kCookieGuard,
        PolicyKind::kFirstPartyIsolation, PolicyKind::kChips}) {
    const auto one = crawl_summary(corpus, kind, 1, nullptr);
    const auto four = crawl_summary(corpus, kind, 4, nullptr);
    EXPECT_EQ(four, one) << "policy " << policy::to_string(kind);
  }
}

TEST(PolicyCrawlTest, FpiCrawlDivertsStoresIntoPartitions) {
  corpus::Corpus corpus(small_params(60));
  obs::MetricsRegistry metrics;
  crawl_summary(corpus, PolicyKind::kFirstPartyIsolation, 1, &metrics);
  // Under FPI every first-party store is a partitioned store; the counter
  // is how the bake-off matrix sees the diversion through sharded crawls.
  EXPECT_GT(metrics.counter("policy.partitioned_stores"), 0);
}

// ------------------------------------------------------------ golden pin --

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(CG_SOURCE_ROOT "/tests/golden/") + name);
  EXPECT_TRUE(in.good()) << name;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

TEST(PolicyCrawlTest, PolicyNoneReproducesCheckedInGoldenSummary) {
  // The acceptance pin for the storage/policy refactor: the default policy
  // is byte-identical to the pre-policy simulator. The goldens were
  // generated by `cgsim crawl --sites 120 --json --health` at the seed
  // commit; default CrawlOptions (faults armed, policy none) must still
  // reproduce them byte for byte.
  corpus::Corpus corpus(small_params(120));
  crawler::Crawler crawler(corpus);
  analysis::Analyzer analyzer(corpus.entities());
  crawler::CrawlOptions options;
  const auto health =
      crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
        analyzer.ingest(log);
      });
  EXPECT_EQ(report::summary_to_json(analyzer, 20).dump(2) + "\n",
            read_golden("crawl120_summary.json"));
  EXPECT_EQ(health.to_json().dump(2) + "\n",
            read_golden("crawl120_health.json"));
}

}  // namespace
}  // namespace cg
