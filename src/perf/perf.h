// Page-load performance comparison (paper §7.3, Table 4).
//
// Summarizes the three landing-page lifecycle metrics the paper reports
// (dom_content_loaded, dom_interactive, load_event) as mean and median, for
// a plain browser and for one with CookieGuard installed. A TimingCollector
// sits in a crawl's VisitLog sink, so crawls run for other tables (the
// Figure 5 pair in bench/bench_paper.cpp) yield Table 4 without crawling
// again; compare_page_load runs the fault-free pair itself.
#pragma once

#include <vector>

#include "cookieguard/cookieguard.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "net/clock.h"

namespace cg::perf {

struct TimingSummary {
  double mean_ms = 0;
  TimeMillis median_ms = 0;

  bool operator==(const TimingSummary&) const = default;
};

TimingSummary summarize(std::vector<TimeMillis> samples);

struct Metrics {
  TimingSummary dom_content_loaded;
  TimingSummary dom_interactive;
  TimingSummary load_event;

  bool operator==(const Metrics&) const = default;
};

struct Comparison {
  Metrics normal;
  Metrics guarded;
  /// Mean added load-event time, the paper's "average overhead" headline.
  double mean_overhead_ms = 0;

  bool operator==(const Comparison&) const = default;
};

/// Landing-page timings of one crawl, fed one VisitLog at a time from the
/// crawl's sink. Every visit counts, excluded ones too (Table 4 uses all
/// visits). Order-independent: the summaries are a mean and a median.
class TimingCollector {
 public:
  void add(const instrument::VisitLog& log);
  Metrics metrics() const;

 private:
  std::vector<TimeMillis> dom_content_loaded_;
  std::vector<TimeMillis> dom_interactive_;
  std::vector<TimeMillis> load_event_;
};

/// Pairs a plain crawl's metrics with a defended crawl's.
Comparison compare(const Metrics& normal, const Metrics& guarded);

/// Runs the fault-free pair — plain browser, then one CookieGuard built
/// from `config` per crawl worker — over the first `site_count` corpus
/// sites. `threads` follows CrawlOptions::threads (1 = sequential, 0 = all
/// hardware threads); results are identical at any thread count.
Comparison compare_page_load(const corpus::Corpus& corpus, int site_count,
                             const cookieguard::CookieGuardConfig& config,
                             int threads = 1);

}  // namespace cg::perf
