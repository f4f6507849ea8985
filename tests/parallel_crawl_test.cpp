// End-to-end determinism of the sharded crawl: an N-thread crawl must be
// byte-identical to the 1-thread crawl — analysis summary, crawl health,
// and sink order — and checkpoints taken under sharding must resume at a
// different thread count without losing or double-counting a site.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "cookieguard/cookieguard.h"
#include "crawler/crawler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/json.h"
#include "report/report.h"

namespace cg {
namespace {

corpus::CorpusParams small_params(int n) {
  corpus::CorpusParams params;
  params.site_count = n;
  return params;
}

struct CrawlResult {
  crawler::CrawlHealth health;
  std::string summary;
  std::vector<int> sink_ranks;
};

CrawlResult crawl_with_threads(const corpus::Corpus& corpus, int threads) {
  crawler::Crawler crawler(corpus);
  analysis::Analyzer analyzer(corpus.entities());
  crawler::CrawlOptions options;
  options.threads = threads;
  CrawlResult out;
  out.health =
      crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
        out.sink_ranks.push_back(log.rank);
        analyzer.ingest(log);
      });
  out.summary = report::summary_to_json(analyzer, 20).dump(2);
  return out;
}

TEST(ParallelCrawlTest, EightThreadSummaryIsByteIdenticalToOneThread) {
  corpus::Corpus corpus(small_params(500));
  const CrawlResult one = crawl_with_threads(corpus, 1);
  for (const int threads : {2, 4, 8}) {
    const CrawlResult many = crawl_with_threads(corpus, threads);
    EXPECT_EQ(many.summary, one.summary) << threads << " threads";
    EXPECT_EQ(many.health.to_json().dump(), one.health.to_json().dump())
        << threads << " threads";
    EXPECT_EQ(many.sink_ranks, one.sink_ranks) << threads << " threads";
  }
}

TEST(ParallelCrawlTest, PerWorkerGuardsMatchSequentialGuard) {
  // A stateful extension crawls threaded through the per-worker factory;
  // the observable analysis output must match the sequential single-guard
  // crawl because guard behaviour is per-visit deterministic.
  corpus::Corpus corpus(small_params(200));

  const auto crawl_guarded = [&](int threads) {
    crawler::Crawler crawler(corpus);
    analysis::Analyzer analyzer(corpus.entities());
    crawler::CrawlOptions options;
    options.threads = threads;
    crawler::PerWorker<cookieguard::CookieGuard> guards(threads);
    options.extension_factory = guards.factory();
    crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
      analyzer.ingest(log);
    });
    cookieguard::CookieGuard::Stats stats;
    for (const auto& guard : guards.instances()) stats.merge(guard->stats());
    return std::pair(report::summary_to_json(analyzer, 20).dump(2), stats);
  };

  const auto [summary1, stats1] = crawl_guarded(1);
  const auto [summary4, stats4] = crawl_guarded(4);
  EXPECT_EQ(summary4, summary1);
  EXPECT_EQ(stats4.cookies_hidden, stats1.cookies_hidden);
  EXPECT_EQ(stats4.writes_blocked, stats1.writes_blocked);
}

TEST(ParallelCrawlTest, SharedExtensionWithoutFactoryFallsBackToSequential) {
  // extra_extensions without a factory cannot be parallelised safely; the
  // crawl silently degrades to one thread instead of racing the extension.
  corpus::Corpus corpus(small_params(60));
  cookieguard::CookieGuard guard;

  crawler::Crawler crawler(corpus);
  analysis::Analyzer threaded(corpus.entities());
  crawler::CrawlOptions options;
  options.threads = 8;
  options.extra_extensions.push_back(&guard);
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    threaded.ingest(log);
  });

  cookieguard::CookieGuard fresh;
  analysis::Analyzer sequential(corpus.entities());
  crawler::CrawlOptions seq_options;
  seq_options.extra_extensions.push_back(&fresh);
  crawler.crawl(corpus.size(), seq_options, [&](instrument::VisitLog&& log) {
    sequential.ingest(log);
  });

  EXPECT_EQ(report::summary_to_json(threaded, 20).dump(),
            report::summary_to_json(sequential, 20).dump());
}

TEST(ParallelCrawlTest, CheckpointUnderShardingResumesAtDifferentThreadCount) {
  // Kill a 4-thread crawl mid-flight (the checkpoint callback throws once
  // the crawl passes site 150), resume the persisted checkpoint at 2
  // threads, and require the stitched run to match an uninterrupted one.
  corpus::Corpus corpus(small_params(300));
  crawler::Crawler crawler(corpus);

  analysis::Analyzer uninterrupted(corpus.entities());
  crawler::CrawlOptions plain;
  const auto full = crawler.crawl(corpus.size(), plain,
                                  [&](instrument::VisitLog&& log) {
                                    uninterrupted.ingest(log);
                                  });

  struct Killed {};
  analysis::Analyzer stitched(corpus.entities());
  std::string persisted;
  crawler::CrawlOptions interrupted;
  interrupted.threads = 4;
  interrupted.checkpoint_interval = 50;
  interrupted.on_checkpoint = [&](const crawler::CrawlCheckpoint& checkpoint) {
    persisted = checkpoint.to_json_string();
    if (checkpoint.next_index >= 150) throw Killed{};
  };
  EXPECT_THROW(crawler.crawl(corpus.size(), interrupted,
                             [&](instrument::VisitLog&& log) {
                               stitched.ingest(log);
                             }),
               Killed);

  const auto checkpoint = crawler::CrawlCheckpoint::from_json_string(persisted);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->next_index, 150);
  EXPECT_EQ(checkpoint->threads, 4);  // diagnostic only; resume ignores it
  // The merge is an in-order fold, so the sink saw exactly the checkpoint
  // prefix before the abort — the analyzer holds sites [0, 150) and the
  // resumed crawl must deliver exactly [150, 300).
  crawler::CrawlOptions resume_options;
  resume_options.threads = 2;
  const auto resumed = crawler.resume(*checkpoint, resume_options,
                                      [&](instrument::VisitLog&& log) {
                                        stitched.ingest(log);
                                      });

  EXPECT_EQ(resumed.to_json().dump(), full.to_json().dump());
  EXPECT_EQ(resumed.retained_ranks, full.retained_ranks);
  EXPECT_EQ(report::summary_to_json(stitched, 20).dump(2),
            report::summary_to_json(uninterrupted, 20).dump(2));
}

TEST(ParallelCrawlTest, CheckpointCarriesShardDiagnostics) {
  corpus::Corpus corpus(small_params(120));
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;
  options.threads = 4;
  options.checkpoint_interval = 40;
  std::vector<crawler::CrawlCheckpoint> checkpoints;
  options.on_checkpoint = [&](const crawler::CrawlCheckpoint& checkpoint) {
    checkpoints.push_back(checkpoint);
  };
  crawler.crawl(corpus.size(), options, [](instrument::VisitLog&&) {});
  ASSERT_FALSE(checkpoints.empty());
  for (const auto& checkpoint : checkpoints) {
    EXPECT_EQ(checkpoint.threads, 4);
    ASSERT_EQ(checkpoint.shard_completed.size(), 4u);
    // The snapshot is advisory (workers race ahead of the merge cursor),
    // but it can never report more sites than were attempted in total.
    int total = 0;
    for (const int n : checkpoint.shard_completed) total += n;
    EXPECT_GE(total, checkpoint.next_index);
    EXPECT_LE(total, 120);
    // And it round-trips through JSON.
    const auto parsed = crawler::CrawlCheckpoint::from_json_string(
        checkpoint.to_json_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->threads, checkpoint.threads);
    EXPECT_EQ(parsed->shard_completed, checkpoint.shard_completed);
  }
}

TEST(ParallelCrawlTest, CrawlHealthMergeSumsEveryCounter) {
  crawler::CrawlHealth a;
  a.sites_attempted = 10;
  a.sites_retained = 7;
  a.sites_excluded = 3;
  a.sites_degraded = 2;
  a.sites_recovered = 1;
  a.total_attempts = 15;
  a.total_retries = 5;
  a.exclusions[static_cast<int>(fault::FailureClass::kDnsFailure)] = 2;
  a.retained_ranks = {1, 2, 5};

  crawler::CrawlHealth b;
  b.sites_attempted = 4;
  b.sites_retained = 4;
  b.total_attempts = 4;
  b.attempt_failures[static_cast<int>(fault::FailureClass::kConnectTimeout)] =
      1;
  b.retained_ranks = {11, 12};

  a.merge(b);
  EXPECT_EQ(a.sites_attempted, 14);
  EXPECT_EQ(a.sites_retained, 11);
  EXPECT_EQ(a.sites_excluded, 3);
  EXPECT_EQ(a.sites_degraded, 2);
  EXPECT_EQ(a.sites_recovered, 1);
  EXPECT_EQ(a.total_attempts, 19);
  EXPECT_EQ(a.total_retries, 5);
  EXPECT_EQ(a.exclusions[static_cast<int>(fault::FailureClass::kDnsFailure)],
            2);
  EXPECT_EQ(a.attempt_failures[static_cast<int>(
                fault::FailureClass::kConnectTimeout)],
            1);
  EXPECT_EQ(a.retained_ranks, (std::vector<int>{1, 2, 5, 11, 12}));
}

TEST(ParallelCrawlTest, AnalyzerShardMergeMatchesSequentialIngest) {
  // Ingesting shards into separate analyzers and merging must reproduce
  // the single-analyzer run — the property the parallel reduction relies
  // on if callers ever shard the analysis itself.
  corpus::Corpus corpus(small_params(160));
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;

  std::vector<instrument::VisitLog> logs;
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    logs.push_back(std::move(log));
  });

  analysis::Analyzer sequential(corpus.entities());
  for (const auto& log : logs) sequential.ingest(log);

  analysis::Analyzer front(corpus.entities());
  analysis::Analyzer back(corpus.entities());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    (i < logs.size() / 2 ? front : back).ingest(logs[i]);
  }
  front.merge(std::move(back));

  EXPECT_EQ(report::summary_to_json(front, 20).dump(2),
            report::summary_to_json(sequential, 20).dump(2));
  EXPECT_EQ(front.totals().unique_setter_scripts,
            sequential.totals().unique_setter_scripts);
}

struct TracedCrawl {
  std::string trace_json;
  std::string metrics_json;
};

TracedCrawl traced_crawl_with_threads(const corpus::Corpus& corpus,
                                      int threads) {
  crawler::Crawler crawler(corpus);
  analysis::Analyzer analyzer(corpus.entities());
  obs::TraceRecorder recorder({obs::Detail::kFull, false});
  obs::MetricsRegistry metrics;
  obs::MetricsRegistry scheduler;  // diagnostics: excluded from identity
  crawler::CrawlOptions options;
  options.threads = threads;
  options.trace = &recorder;
  options.metrics = &metrics;
  options.scheduler_metrics = &scheduler;
  crawler.crawl(corpus.size(), options, [&](instrument::VisitLog&& log) {
    analyzer.ingest(log);
  });
  return {recorder.to_chrome_json(), metrics.to_json().dump(2)};
}

TEST(ParallelCrawlTest, TracedCrawlIsByteIdenticalAcrossThreadCounts) {
  // The observability extension of the determinism contract: the full-detail
  // trace and the site-merged metrics registry are byte-identical at any
  // thread count. (Scheduler diagnostics legitimately differ and live in a
  // separate registry precisely so this holds.)
  corpus::Corpus corpus(small_params(200));
  const TracedCrawl one = traced_crawl_with_threads(corpus, 1);
  EXPECT_FALSE(one.trace_json.empty());
  ASSERT_TRUE(report::Json::parse(one.trace_json).has_value());
  for (const int threads : {2, 4, 8}) {
    const TracedCrawl many = traced_crawl_with_threads(corpus, threads);
    EXPECT_EQ(many.trace_json, one.trace_json) << threads << " threads";
    EXPECT_EQ(many.metrics_json, one.metrics_json) << threads << " threads";
  }
}

TEST(ParallelCrawlTest, TracedKillAndResumeProducesWellFormedTraces) {
  // A crawl killed mid-flight must still leave a parseable trace document
  // (the streaming recorder closes the JSON on destruction), and the
  // resumed crawl's trace must be well-formed with per-track timestamps
  // non-decreasing — the invariant `cgsim trace-check` enforces.
  corpus::Corpus corpus(small_params(200));
  crawler::Crawler crawler(corpus);

  struct Killed {};
  std::string persisted;
  std::ostringstream first_stream;
  {
    obs::TraceRecorder recorder({obs::Detail::kCrawl, false}, &first_stream);
    crawler::CrawlOptions options;
    options.threads = 4;
    options.trace = &recorder;
    options.checkpoint_interval = 50;
    options.on_checkpoint = [&](const crawler::CrawlCheckpoint& checkpoint) {
      persisted = checkpoint.to_json_string();
      if (checkpoint.next_index >= 100) throw Killed{};
    };
    EXPECT_THROW(
        crawler.crawl(corpus.size(), options, [](instrument::VisitLog&&) {}),
        Killed);
  }  // recorder destruction closes the streamed document

  const auto verify_trace = [](const std::string& text) {
    const auto parsed = report::Json::parse(text);
    ASSERT_TRUE(parsed.has_value());
    const auto* events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    EXPECT_GT(events->size(), 0u);
    std::map<std::int64_t, std::int64_t> last_ts_by_track;
    for (std::size_t i = 0; i < events->size(); ++i) {
      const auto& event = events->at(i);
      ASSERT_NE(event.find("ph"), nullptr);
      ASSERT_NE(event.find("ts"), nullptr);
      const std::int64_t track = event.find("tid")->as_int();
      const std::int64_t ts = event.find("ts")->as_int();
      const auto it = last_ts_by_track.find(track);
      if (it != last_ts_by_track.end()) {
        EXPECT_GE(ts, it->second);
      }
      last_ts_by_track[track] = ts;
    }
  };
  verify_trace(first_stream.str());

  const auto checkpoint = crawler::CrawlCheckpoint::from_json_string(persisted);
  ASSERT_TRUE(checkpoint.has_value());
  std::ostringstream resume_stream;
  {
    obs::TraceRecorder recorder({obs::Detail::kCrawl, false}, &resume_stream);
    crawler::CrawlOptions options;
    options.threads = 2;
    options.trace = &recorder;
    crawler.resume(*checkpoint, options, [](instrument::VisitLog&&) {});
  }
  verify_trace(resume_stream.str());
}

}  // namespace
}  // namespace cg
