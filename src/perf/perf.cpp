#include "perf/perf.h"

#include <algorithm>
#include <optional>

namespace cg::perf {

TimingSummary summarize(std::vector<TimeMillis> samples) {
  TimingSummary out;
  if (samples.empty()) return out;
  double sum = 0;
  for (const auto v : samples) sum += static_cast<double>(v);
  out.mean_ms = sum / static_cast<double>(samples.size());
  auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  out.median_ms = *mid;
  return out;
}

void TimingCollector::add(const instrument::VisitLog& log) {
  dom_content_loaded_.push_back(log.landing_timings.dom_content_loaded);
  dom_interactive_.push_back(log.landing_timings.dom_interactive);
  load_event_.push_back(log.landing_timings.load_event);
}

Metrics TimingCollector::metrics() const {
  return {summarize(dom_content_loaded_), summarize(dom_interactive_),
          summarize(load_event_)};
}

Comparison compare(const Metrics& normal, const Metrics& guarded) {
  return {normal, guarded,
          guarded.load_event.mean_ms - normal.load_event.mean_ms};
}

namespace {

/// One fault-free timing crawl. A non-null `guard` installs one CookieGuard
/// built from it per crawl worker (guard behaviour is per-visit
/// deterministic, so the timings are identical at any thread count).
Metrics timing_crawl(const crawler::Crawler& crawl, int site_count,
                     int threads,
                     const cookieguard::CookieGuardConfig* guard) {
  std::optional<crawler::PerWorker<cookieguard::CookieGuard>> guards;
  crawler::CrawlOptions options;
  options.fault_plan.reset();
  options.threads = threads;
  if (guard != nullptr) {
    guards.emplace(threads, *guard);
    options.extension_factory = guards->factory();
  }
  TimingCollector timings;
  crawl.crawl(site_count, options,
              [&timings](instrument::VisitLog&& log) { timings.add(log); });
  return timings.metrics();
}

}  // namespace

Comparison compare_page_load(const corpus::Corpus& corpus, int site_count,
                             const cookieguard::CookieGuardConfig& config,
                             int threads) {
  const crawler::Crawler crawl(corpus);
  return compare(timing_crawl(crawl, site_count, threads, nullptr),
                 timing_crawl(crawl, site_count, threads, &config));
}

}  // namespace cg::perf
