// Tests for the performance comparison pipeline (Table 4).
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "perf/perf.h"

namespace cg::perf {
namespace {

TEST(SummarizeTest, MeanAndMedian) {
  const auto s = summarize({100, 200, 300, 400, 1000});
  EXPECT_DOUBLE_EQ(s.mean_ms, 400.0);
  EXPECT_EQ(s.median_ms, 300);
}

TEST(SummarizeTest, EmptyInput) {
  const auto s = summarize({});
  EXPECT_DOUBLE_EQ(s.mean_ms, 0.0);
  EXPECT_EQ(s.median_ms, 0);
}

TEST(SummarizeTest, SingleSample) {
  const auto s = summarize({42});
  EXPECT_DOUBLE_EQ(s.mean_ms, 42.0);
  EXPECT_EQ(s.median_ms, 42);
}

class PerfComparisonTest : public ::testing::Test {
 protected:
  static const corpus::Corpus& corpus() {
    static const corpus::CorpusParams params = [] {
      corpus::CorpusParams p;
      p.site_count = 120;
      return p;
    }();
    static const corpus::Corpus instance(params);
    return instance;
  }
};

TEST_F(PerfComparisonTest, CookieGuardAddsOverhead) {
  cookieguard::CookieGuardConfig config;
  const auto comparison = compare_page_load(corpus(), 120, config);
  EXPECT_GT(comparison.mean_overhead_ms, 0);
  EXPECT_GT(comparison.guarded.dom_content_loaded.mean_ms,
            comparison.normal.dom_content_loaded.mean_ms);
  // dom_interactive fires before any script executes, so interception
  // cannot slow it: equal in both runs.
  EXPECT_DOUBLE_EQ(comparison.guarded.dom_interactive.mean_ms,
                   comparison.normal.dom_interactive.mean_ms);
  // Ordering invariants hold in both runs.
  EXPECT_LE(comparison.normal.dom_interactive.mean_ms,
            comparison.normal.dom_content_loaded.mean_ms);
  EXPECT_LE(comparison.normal.dom_content_loaded.mean_ms,
            comparison.normal.load_event.mean_ms);
}

TEST_F(PerfComparisonTest, OverheadScalesWithPerCallCost) {
  cookieguard::CookieGuardConfig cheap;
  cheap.api_overhead_ms = 1;
  cookieguard::CookieGuardConfig expensive;
  expensive.api_overhead_ms = 10;
  const auto a = compare_page_load(corpus(), 60, cheap);
  const auto b = compare_page_load(corpus(), 60, expensive);
  EXPECT_GT(b.mean_overhead_ms, a.mean_overhead_ms);
}

TEST_F(PerfComparisonTest, MedianReportedFromSameDistribution) {
  cookieguard::CookieGuardConfig config;
  const auto comparison = compare_page_load(corpus(), 60, config);
  EXPECT_GT(comparison.normal.load_event.median_ms, 0);
  EXPECT_GE(comparison.normal.load_event.mean_ms,
            comparison.normal.dom_content_loaded.mean_ms);
}

/// One fault-free crawl of the fixture, optionally with a CookieGuard,
/// whose sink feeds a TimingCollector and an Analyzer the way bench_paper
/// folds its crawls. The analyzer keeps every visit's landing timings too,
/// an oracle that does not go through the collector.
struct SinkCrawl {
  TimingCollector timings;
  analysis::Analyzer analyzer;

  SinkCrawl(const corpus::Corpus& corpus, policy::PolicyKind policy,
            bool guarded)
      : analyzer(corpus.entities()) {
    cookieguard::CookieGuard guard;
    crawler::CrawlOptions options;
    options.fault_plan.reset();
    options.policy = policy;
    if (guarded) options.extra_extensions = {&guard};
    crawler::Crawler(corpus).crawl(corpus.size(), options,
                                   [this](instrument::VisitLog&& log) {
                                     analyzer.ingest(log);
                                     timings.add(log);
                                   });
  }

  Metrics oracle() const {
    const auto& t = analyzer.totals();
    return {summarize(t.dom_content_loaded), summarize(t.dom_interactive),
            summarize(t.load_event)};
  }
};

// The bake-off's cookieguard row reads its load overhead from the guarded
// crawl Figure 5 runs under the plain engine: the jar-identical
// CookieGuard engine must not move a single landing timing.
TEST_F(PerfComparisonTest, GuardedTimingsEqualUnderNoneAndCookieGuardEngine) {
  const SinkCrawl none(corpus(), policy::PolicyKind::kNone, true);
  const SinkCrawl engine(corpus(), policy::PolicyKind::kCookieGuard, true);
  EXPECT_EQ(none.timings.metrics(), none.oracle());
  EXPECT_EQ(engine.timings.metrics(), engine.oracle());
  EXPECT_EQ(none.timings.metrics(), engine.timings.metrics());
}

// Table 4 comes from collectors in the sinks of crawls bench_paper already
// runs: they must give exactly the Comparison of the dedicated pair.
TEST_F(PerfComparisonTest, SinkCollectorsGiveComparePageLoad) {
  const SinkCrawl plain(corpus(), policy::PolicyKind::kNone, false);
  const SinkCrawl guarded(corpus(), policy::PolicyKind::kNone, true);
  EXPECT_EQ(plain.timings.metrics(), plain.oracle());
  EXPECT_EQ(guarded.timings.metrics(), guarded.oracle());
  EXPECT_EQ(compare(plain.timings.metrics(), guarded.timings.metrics()),
            compare_page_load(corpus(), corpus().size(), {}, 4));
}

}  // namespace
}  // namespace cg::perf
