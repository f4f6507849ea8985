// Serving-tier tests: zipfian workload determinism and shape, hot-block
// cache admission/eviction/stats semantics, the query line protocol, and
// Server answers — aggregate == batch fold, per-site == random access,
// and N-thread == 1-thread byte-identity.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "entities/entity_map.h"
#include "report/report.h"
#include "serve/cache.h"
#include "serve/query.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "store/delta_codec.h"
#include "store/reader.h"
#include "store/writer.h"

namespace cg::serve {
namespace {

// ---- workload -------------------------------------------------------------

TEST(ZipfSamplerTest, ProbabilitiesSumToOneAndDecrease) {
  const ZipfSampler sampler(100, 0.99);
  double sum = 0;
  for (int k = 0; k < 100; ++k) sum += sampler.probability(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (int k = 1; k < 100; ++k) {
    EXPECT_LT(sampler.probability(k), sampler.probability(k - 1));
  }
  EXPECT_EQ(sampler.probability(-1), 0.0);
  EXPECT_EQ(sampler.probability(100), 0.0);
}

TEST(ZipfSamplerTest, EmpiricalHeadMatchesTheory) {
  const ZipfSampler sampler(1000, 0.99);
  script::Rng rng(42);
  std::vector<int> counts(1000, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.sample(rng)];
  // Head ranks get enough mass for a tight relative check.
  for (int k = 0; k < 5; ++k) {
    const double expected = sampler.probability(k) * kDraws;
    EXPECT_NEAR(counts[k], expected, 0.08 * expected) << "rank " << k;
  }
  // Monotone-ish head: rank 0 strictly dominates rank 10 and rank 100.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
}

TEST(WorkloadTest, SameSeedSameStream) {
  WorkloadSpec spec;
  spec.site_count = 500;
  WorkloadGenerator a(spec);
  WorkloadGenerator b(spec);
  const auto qa = a.generate(2000);
  const auto qb = b.generate(2000);
  ASSERT_EQ(qa.size(), qb.size());
  for (std::size_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(to_text(qa[i]), to_text(qb[i])) << "query " << i;
  }
}

TEST(WorkloadTest, GenerateIsPureAndRanksInBounds) {
  WorkloadSpec spec;
  spec.site_count = 50;
  WorkloadGenerator gen(spec);
  const auto first = gen.generate(500);
  const auto second = gen.generate(500);  // restarts from the seed
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(to_text(first[i]), to_text(second[i]));
  }
  int sites = 0;
  for (const Query& q : first) {
    if (q.kind == QueryKind::kSite) {
      ++sites;
      EXPECT_GE(q.rank, 1);
      EXPECT_LE(q.rank, 50);
    }
  }
  // weight_site = 90/100 by default; the stream must be site-dominated.
  EXPECT_GT(sites, 350);
}

TEST(WorkloadTest, DifferentSeedsDiverge) {
  WorkloadSpec a;
  a.site_count = 500;
  WorkloadSpec b = a;
  b.seed = a.seed + 1;
  const auto qa = WorkloadGenerator(a).generate(200);
  const auto qb = WorkloadGenerator(b).generate(200);
  int differing = 0;
  for (std::size_t i = 0; i < qa.size(); ++i) {
    if (to_text(qa[i]) != to_text(qb[i])) ++differing;
  }
  EXPECT_GT(differing, 0);
}

// ---- query protocol -------------------------------------------------------

TEST(QueryParseTest, RoundTripsEveryKind) {
  const char* lines[] = {"site 17",       "table1",       "totals",
                         "top-exfiltrated 5", "top-domains 3", "entity Google",
                         "stats"};
  for (const char* line : lines) {
    const auto q = parse_query(line);
    ASSERT_TRUE(q.has_value()) << line;
    EXPECT_EQ(to_text(*q), line);
    // to_text must parse back to the same query.
    const auto again = parse_query(to_text(*q));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(to_text(*again), line);
  }
}

TEST(QueryParseTest, WavesQueriesRoundTrip) {
  const auto bare = parse_query("waves");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->kind, QueryKind::kWaves);
  EXPECT_TRUE(bare->domain.empty());
  EXPECT_EQ(to_text(*bare), "waves");

  const auto filtered = parse_query("waves tracker.net");
  ASSERT_TRUE(filtered.has_value());
  EXPECT_EQ(filtered->kind, QueryKind::kWaves);
  EXPECT_EQ(filtered->domain, "tracker.net");
  EXPECT_EQ(to_text(*filtered), "waves tracker.net");

  EXPECT_FALSE(parse_query("waves a b").has_value());
}

TEST(QueryParseTest, DefaultsAndRejects) {
  EXPECT_EQ(parse_query("top-exfiltrated")->top_n, 10);
  EXPECT_EQ(parse_query("top-domains")->top_n, 10);
  EXPECT_FALSE(parse_query("").has_value());
  EXPECT_FALSE(parse_query("site").has_value());
  EXPECT_FALSE(parse_query("site x").has_value());
  EXPECT_FALSE(parse_query("site 17 trailing").has_value());
  EXPECT_FALSE(parse_query("table1 extra").has_value());
  EXPECT_FALSE(parse_query("entity").has_value());
  EXPECT_FALSE(parse_query("unknown 1").has_value());
}

TEST(QueryParseTest, CarriageReturnIsASeparatorNotPartOfAToken) {
  // A CRLF client's line arrives with its \r still attached.
  const auto site = parse_query("site 1\r");
  ASSERT_TRUE(site.has_value());
  EXPECT_EQ(site->kind, QueryKind::kSite);
  EXPECT_EQ(site->rank, 1);
  ASSERT_TRUE(parse_query("table1\r").has_value());
  EXPECT_EQ(parse_query("table1\r")->kind, QueryKind::kTable1);
  const auto entity = parse_query("entity Google\r");
  ASSERT_TRUE(entity.has_value());
  EXPECT_EQ(entity->entity, "Google");
  EXPECT_EQ(to_text(*entity), "entity Google");
  EXPECT_EQ(parse_query("waves tracker.net\r")->domain, "tracker.net");
  EXPECT_FALSE(parse_query("\r").has_value());
}

TEST(QueryParseTest, EveryAsciiWhitespaceSeparates) {
  for (const char* line :
       {"site\v17", "site\f17", "site\r17", "\v site \t\f 17 \r",
        "\f\vsite\r\n17\n", " \t\v\f\r\nsite 17"}) {
    const auto q = parse_query(line);
    ASSERT_TRUE(q.has_value()) << testing::PrintToString(line);
    EXPECT_EQ(q->kind, QueryKind::kSite);
    EXPECT_EQ(q->rank, 17);
  }
  const auto top = parse_query("top-domains\v\f3\r");
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->top_n, 3);
  const auto entity = parse_query("\tentity\fGoogle\v");
  ASSERT_TRUE(entity.has_value());
  EXPECT_EQ(entity->entity, "Google");
  EXPECT_FALSE(parse_query("site\v17\fextra").has_value());
  EXPECT_FALSE(parse_query(" \t\v\f\r\n").has_value());
}

// ---- cache ----------------------------------------------------------------

std::shared_ptr<const instrument::VisitLog> log_for(int rank) {
  instrument::VisitLog log;
  log.rank = rank;
  log.site = "site" + std::to_string(rank) + ".com";
  return std::make_shared<const instrument::VisitLog>(std::move(log));
}

TEST(BlockCacheTest, HitMissAndCounters) {
  CacheConfig config;
  config.max_entries = 4;
  config.shards = 1;
  BlockCache cache(config);
  EXPECT_EQ(cache.get(0, 1), nullptr);
  cache.put(0, 1, 100, log_for(1));
  const auto hit = cache.get(0, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rank, 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(BlockCacheTest, ArchiveIndexIsPartOfTheKey) {
  CacheConfig config;
  config.shards = 1;
  BlockCache cache(config);
  cache.put(0, 1, 100, log_for(1));
  EXPECT_EQ(cache.get(1, 1), nullptr);  // same rank, other archive
  EXPECT_NE(cache.get(0, 1), nullptr);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  CacheConfig config;
  config.max_entries = 2;
  config.shards = 1;
  BlockCache cache(config);
  cache.put(0, 1, 100, log_for(1));
  cache.put(0, 2, 100, log_for(2));
  ASSERT_NE(cache.get(0, 1), nullptr);  // refresh 1; 2 becomes LRU
  cache.put(0, 3, 100, log_for(3));     // evicts 2
  EXPECT_EQ(cache.get(0, 2), nullptr);
  EXPECT_NE(cache.get(0, 1), nullptr);
  EXPECT_NE(cache.get(0, 3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(BlockCacheTest, AdmissionRejectsOversizedBlocks) {
  CacheConfig config;
  config.max_block_bytes = 1000;
  config.shards = 1;
  BlockCache cache(config);
  cache.put(0, 1, 1001, log_for(1));  // over the bound: never admitted
  EXPECT_EQ(cache.get(0, 1), nullptr);
  cache.put(0, 2, 1000, log_for(2));  // at the bound: admitted
  EXPECT_NE(cache.get(0, 2), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.rejected_admission, 1);
  EXPECT_EQ(stats.insertions, 1);
}

TEST(BlockCacheTest, DuplicatePutKeepsIncumbent) {
  CacheConfig config;
  config.shards = 1;
  BlockCache cache(config);
  const auto first = log_for(1);
  cache.put(0, 1, 100, first);
  cache.put(0, 1, 100, log_for(1));  // concurrent decode of the same block
  EXPECT_EQ(cache.get(0, 1).get(), first.get());
  EXPECT_EQ(cache.stats().insertions, 1);
}

TEST(BlockCacheTest, ZeroCapacityDisablesCaching) {
  CacheConfig config;
  config.max_entries = 0;
  BlockCache cache(config);
  cache.put(0, 1, 100, log_for(1));
  EXPECT_EQ(cache.get(0, 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

// ---- server ---------------------------------------------------------------

corpus::CorpusParams small_params(int sites) {
  corpus::CorpusParams params;
  params.site_count = sites;
  return params;
}

/// Crawls `sites` sites and packs them into an in-memory CGAR image.
std::string packed_archive(const corpus::Corpus& corpus) {
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;
  store::WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  const fault::FaultPlan plan = crawler.plan_for(options);
  writer_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  std::ostringstream sink;
  store::Writer writer(&sink, writer_options);
  crawler.crawl(corpus.size(), options,
                [&](instrument::VisitLog&& log) { writer.add(log); });
  EXPECT_TRUE(writer.finish());
  return sink.str();
}

std::unique_ptr<Server> server_over(const std::string& archive,
                                    ServerConfig config = {}) {
  store::Error error;
  auto reader = store::Reader::from_buffer(archive, &error);
  EXPECT_TRUE(reader.has_value()) << error.to_string();
  std::vector<store::Reader> readers;
  readers.push_back(std::move(*reader));
  auto server = Server::from_readers(std::move(readers), config, &error);
  EXPECT_NE(server, nullptr) << error.to_string();
  return server;
}

TEST(ServerTest, AggregateMatchesBatchAnalyzer) {
  corpus::Corpus corpus(small_params(60));
  const std::string archive = packed_archive(corpus);
  const auto server = server_over(archive);

  store::Error error;
  auto reader = store::Reader::from_buffer(archive, &error);
  ASSERT_TRUE(reader.has_value());
  analysis::Analyzer batch(corpus.entities());
  ASSERT_TRUE(analysis::analyze_archive(*reader, batch, &error));

  analysis::Analyzer from_serve(corpus.entities());
  from_serve.apply(analysis::SiteSummary(server->aggregate()));
  EXPECT_EQ(report::summary_to_json(batch, 10).dump(),
            report::summary_to_json(from_serve, 10).dump());
}

TEST(ServerTest, AggregateMatchesSequentialFoldReference) {
  corpus::Corpus corpus(small_params(60));
  const std::string archive = packed_archive(corpus);
  const auto server = server_over(archive);

  // The single-threaded reference: for_each, fold_visit, merge.
  store::Error error;
  auto reader = store::Reader::from_buffer(archive, &error);
  ASSERT_TRUE(reader.has_value());
  analysis::SiteSummary reference;
  ASSERT_TRUE(reader->for_each(
      [&](instrument::VisitLog&& log) {
        reference.merge(
            analysis::fold_visit(entities::EntityMap::builtin(), {}, log));
      },
      &error));

  analysis::Analyzer expected(corpus.entities());
  expected.apply(std::move(reference));
  analysis::Analyzer from_serve(corpus.entities());
  from_serve.apply(analysis::SiteSummary(server->aggregate()));
  EXPECT_EQ(report::summary_to_json(from_serve, 10).dump(),
            report::summary_to_json(expected, 10).dump());
}

TEST(ServerTest, SiteAnswersAreStableAndCacheIsTransparent) {
  corpus::Corpus corpus(small_params(40));
  const auto server = server_over(packed_archive(corpus));

  ServerConfig no_cache;
  no_cache.cache.max_entries = 0;
  const auto uncached = server_over(packed_archive(corpus), no_cache);

  for (int rank = 1; rank <= 40; ++rank) {
    Query q;
    q.kind = QueryKind::kSite;
    q.rank = rank;
    const std::string cold = server->handle_text(q);
    const std::string warm = server->handle_text(q);  // second read: hit
    EXPECT_EQ(cold, warm) << "rank " << rank;
    EXPECT_EQ(cold, uncached->handle_text(q)) << "rank " << rank;
  }
  const auto stats = server->cache().stats();
  EXPECT_EQ(stats.misses, 40);
  EXPECT_EQ(stats.hits, 40);
  EXPECT_EQ(uncached->cache().stats().insertions, 0);
}

TEST(ServerTest, UnknownRankIsAnErrorAnswerNotACrash) {
  corpus::Corpus corpus(small_params(10));
  const auto server = server_over(packed_archive(corpus));
  Query q;
  q.kind = QueryKind::kSite;
  q.rank = 9999;
  const auto answer = server->handle(q);
  ASSERT_NE(answer.find("error"), nullptr);
  const auto stats = server->stats_json();
  EXPECT_EQ(stats.find("queries")->find("errors")->as_int(), 1);
}

TEST(ServerTest, EntityQueriesDistinguishKnownFromUnknown) {
  corpus::Corpus corpus(small_params(60));
  const auto server = server_over(packed_archive(corpus));
  Query q;
  q.kind = QueryKind::kEntity;
  q.entity = "Google";
  EXPECT_TRUE(server->handle(q).find("known")->as_bool());
  q.entity = "NoSuchEntity";
  const auto answer = server->handle(q);
  EXPECT_FALSE(answer.find("known")->as_bool());
  EXPECT_EQ(answer.find("exfiltrated_pairs")->as_int(), 0);
}

TEST(ServerTest, ConcurrentReadersMatchSequentialAnswers) {
  corpus::Corpus corpus(small_params(50));
  ServerConfig config;
  config.cache.max_entries = 16;  // small: force concurrent evictions
  config.cache.shards = 4;
  const auto server = server_over(packed_archive(corpus), config);

  WorkloadSpec spec;
  spec.site_count = 50;
  const auto queries = WorkloadGenerator(spec).generate(600);

  std::vector<std::string> sequential(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].kind == QueryKind::kStats) continue;
    sequential[i] = server->handle_text(queries[i]);
  }

  constexpr int kThreads = 8;
  std::vector<std::string> concurrent(queries.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < queries.size();
           i += kThreads) {
        if (queries[i].kind == QueryKind::kStats) continue;
        concurrent[i] = server->handle_text(queries[i]);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sequential[i], concurrent[i]) << "query " << i;
  }
}

TEST(ServerTest, TwoArchivesMergeInLoadOrder) {
  // One corpus crawled once, packed whole vs. re-served; the aggregate over
  // the single archive must match table1 over the same archive listed twice
  // only in the lookups-first-wins sense: ranks resolve identically.
  corpus::Corpus corpus(small_params(20));
  const std::string archive = packed_archive(corpus);
  store::Error error;
  auto r1 = store::Reader::from_buffer(archive, &error);
  auto r2 = store::Reader::from_buffer(archive, &error);
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  std::vector<store::Reader> readers;
  readers.push_back(std::move(*r1));
  readers.push_back(std::move(*r2));
  auto server = Server::from_readers(std::move(readers), {}, &error);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->archive_count(), 2);

  // Per-site answers must come from the first archive (identical content
  // here, so they must equal the single-archive answer apart from nothing).
  const auto single = server_over(archive);
  Query q;
  q.kind = QueryKind::kSite;
  q.rank = 3;
  EXPECT_EQ(server->handle_text(q), single->handle_text(q));
}

// ---- wave chains ----------------------------------------------------------

/// Crawls `corpus` keeping the logs, so a second wave can be derived by
/// mutating them (serve_test builds its chain from store primitives — the
/// evolution engine itself is covered in evolve_test).
std::vector<instrument::VisitLog> crawl_logs(const corpus::Corpus& corpus) {
  crawler::Crawler crawler(corpus);
  std::vector<instrument::VisitLog> logs;
  crawler.crawl(corpus.size(), crawler::CrawlOptions{},
                [&](instrument::VisitLog&& log) {
                  logs.push_back(std::move(log));
                });
  return logs;
}

store::WriterOptions wave0_options(const corpus::Corpus& corpus) {
  crawler::Crawler crawler(corpus);
  store::WriterOptions options;
  options.corpus_seed = corpus.params().seed;
  const fault::FaultPlan plan = crawler.plan_for(crawler::CrawlOptions{});
  options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  return options;
}

TEST(ServerTest, WaveChainServesTrendsAndNewestAggregate) {
  corpus::Corpus corpus(small_params(20));
  const auto logs = crawl_logs(corpus);
  ASSERT_EQ(logs.size(), 20u);

  // Wave 0: a full archive of the crawl.
  const store::WriterOptions base_options = wave0_options(corpus);
  std::ostringstream w0_sink;
  {
    store::Writer writer(&w0_sink, base_options);
    for (const auto& log : logs) writer.add(log);
    ASSERT_TRUE(writer.finish());
  }
  store::Error error;
  auto base = store::Reader::from_buffer(w0_sink.str(), &error);
  ASSERT_TRUE(base.has_value()) << error.to_string();

  // Wave 1: one site's requests disappear; everything else inherits.
  auto wave1 = logs;
  wave1[1].requests.clear();
  store::WriterOptions delta_options = base_options;
  delta_options.kind = store::ArchiveKind::kDelta;
  delta_options.wave = 1;
  delta_options.base.corpus_seed = base->corpus_seed();
  delta_options.base.fault_seed = base->fault_seed();
  delta_options.base.evolution_seed = base->evolution_seed();
  delta_options.base.policy = base->policy();
  delta_options.base.wave = base->wave();
  delta_options.base.site_count =
      static_cast<std::uint32_t>(base->total_site_count());
  delta_options.base.footer_crc = base->footer_crc();
  std::ostringstream w1_sink;
  {
    store::Writer writer(&w1_sink, delta_options);
    for (const auto& log : wave1) {
      auto block = store::encode_wave_block(*base, log, &error);
      ASSERT_TRUE(block.has_value()) << error.to_string();
      if (block->kind == store::WaveBlock::Kind::kInherited) {
        ASSERT_TRUE(writer.add_inherited(log.rank));
      } else {
        ASSERT_TRUE(writer.append_delta_block(log.rank,
                                              std::move(block->block)));
      }
    }
    ASSERT_TRUE(writer.finish());
  }

  // A delta among the loaded archives switches the server to chain mode.
  auto delta = store::Reader::from_buffer(w1_sink.str(), &error);
  ASSERT_TRUE(delta.has_value()) << error.to_string();
  std::vector<store::Reader> readers;
  readers.push_back(std::move(*base));
  readers.push_back(std::move(*delta));
  const auto server = Server::from_readers(std::move(readers), {}, &error);
  ASSERT_NE(server, nullptr) << error.to_string();
  EXPECT_EQ(server->archive_count(), 2);
  EXPECT_EQ(server->site_count(), 20);

  // The trend table has one row per wave, in wave order.
  Query waves_query;
  waves_query.kind = QueryKind::kWaves;
  const auto trend = server->handle(waves_query);
  EXPECT_EQ(trend.find("waves")->as_int(), 2);
  const report::Json* rows = trend.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(rows->at(0).find("wave")->as_int(), 0);
  EXPECT_EQ(rows->at(1).find("wave")->as_int(), 1);

  // Per-domain trends answer for every wave too, known or not.
  waves_query.domain = "no-such-domain.example";
  const auto filtered = server->handle(waves_query);
  ASSERT_EQ(filtered.find("rows")->size(), 2u);
  EXPECT_FALSE(filtered.find("rows")->at(0).find("known")->as_bool(true));

  // The aggregate serves the NEWEST wave: identical to a server over an
  // independently packed full archive of the wave-1 logs, and per-site
  // queries materialize rank 2 through the chain.
  store::WriterOptions full1_options = base_options;
  full1_options.wave = 1;
  std::ostringstream full1_sink;
  {
    store::Writer writer(&full1_sink, full1_options);
    for (const auto& log : wave1) writer.add(log);
    ASSERT_TRUE(writer.finish());
  }
  const auto reference = server_over(full1_sink.str());
  analysis::SiteSummary sequential;  // fold_visit + merge over wave 1's logs
  for (const auto& log : wave1) {
    sequential.merge(
        analysis::fold_visit(entities::EntityMap::builtin(), {}, log));
  }
  analysis::Analyzer expected(corpus.entities());
  expected.apply(std::move(sequential));
  analysis::Analyzer served(corpus.entities());
  served.apply(analysis::SiteSummary(server->aggregate()));
  EXPECT_EQ(report::summary_to_json(served, 10).dump(),
            report::summary_to_json(expected, 10).dump());
  for (const auto kind : {QueryKind::kTable1, QueryKind::kTotals}) {
    Query q;
    q.kind = kind;
    EXPECT_EQ(server->handle_text(q), reference->handle_text(q));
  }
  Query site_query;
  site_query.kind = QueryKind::kSite;
  site_query.rank = 2;
  // Only the serving-archive index may differ from the reference answer:
  // the chain serves rank 2 from the delta (archive 1), the full pack from
  // its single archive (archive 0). Records and fold must be identical.
  const auto chain_site = server->handle(site_query);
  const auto full_site = reference->handle(site_query);
  EXPECT_EQ(chain_site.find("archive")->as_int(), 1);
  EXPECT_EQ(chain_site.find("records")->dump(),
            full_site.find("records")->dump());
  EXPECT_EQ(chain_site.find("analysis")->dump(),
            full_site.find("analysis")->dump());
  EXPECT_EQ(chain_site.find("records")->find("requests")->as_int(), 0);
}

TEST(ServerTest, WavesQueryWithoutAChainIsAnErrorAnswer) {
  corpus::Corpus corpus(small_params(10));
  const auto server = server_over(packed_archive(corpus));
  Query q;
  q.kind = QueryKind::kWaves;
  const auto answer = server->handle(q);
  ASSERT_NE(answer.find("error"), nullptr);
}

TEST(ServerTest, RejectsCorruptArchive) {
  corpus::Corpus corpus(small_params(10));
  std::string archive = packed_archive(corpus);
  archive[archive.size() / 2] ^= 0x40;  // flip a bit mid-blocks
  store::Error error;
  auto reader = store::Reader::from_buffer(archive, &error);
  if (!reader.has_value()) return;  // envelope already caught it
  std::vector<store::Reader> readers;
  readers.push_back(std::move(*reader));
  EXPECT_EQ(Server::from_readers(std::move(readers), {}, &error), nullptr);
  EXPECT_FALSE(error.ok());
}

}  // namespace
}  // namespace cg::serve
