#include "crawler/crawler.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "browser/page.h"
#include "instrument/recorder.h"
#include "runtime/sharded_runner.h"
#include "script/rng.h"
#include "store/chain.h"
#include "store/delta_codec.h"
#include "store/record_codec.h"
#include "store/writer.h"

namespace cg::crawler {
namespace {

/// Per-site deterministic seed: results do not depend on crawl order.
std::uint64_t visit_seed_for(std::uint64_t corpus_seed, int rank) {
  return corpus_seed ^
         (0x5EEDULL + static_cast<std::uint64_t>(rank) * 2654435761ULL);
}

/// Staggered virtual start of one attempt (see attempt_visit): rank spread
/// plus per-site jitter plus the accumulated retry backoff. Shared with the
/// trace emission so span timestamps match the browser clock exactly.
TimeMillis attempt_clock_start(const browser::BrowserConfig& config, int rank,
                               std::uint64_t visit_seed,
                               TimeMillis clock_shift_ms) {
  return config.clock_start + static_cast<TimeMillis>(rank) * 77'777 +
         static_cast<TimeMillis>(visit_seed % 37'000) + clock_shift_ms;
}

/// Histogram bounds for the deterministic crawl metrics (ms).
const std::vector<double>& visit_ms_bounds() {
  static const std::vector<double> bounds = {1'000,  2'000,  4'000,  8'000,
                                             16'000, 32'000, 64'000, 128'000};
  return bounds;
}

const std::vector<double>& backoff_ms_bounds() {
  static const std::vector<double> bounds = {60'000, 120'000, 240'000,
                                             480'000};
  return bounds;
}

report::Json class_counts_to_json(
    const std::array<int, fault::kFailureClassCount>& counts) {
  auto out = report::Json::object();
  for (int c = 0; c < fault::kFailureClassCount; ++c) {
    if (counts[c] > 0) {
      out[std::string(
          fault::failure_class_name(static_cast<fault::FailureClass>(c)))] =
          counts[c];
    }
  }
  return out;
}

void class_counts_from_json(const report::Json* node,
                            std::array<int, fault::kFailureClassCount>& counts) {
  counts.fill(0);
  if (node == nullptr) return;
  for (int c = 0; c < fault::kFailureClassCount; ++c) {
    const auto* entry = node->find(
        fault::failure_class_name(static_cast<fault::FailureClass>(c)));
    if (entry != nullptr) counts[c] = static_cast<int>(entry->as_int());
  }
}

CrawlHealth health_from_json(const report::Json& j) {
  CrawlHealth health;
  const auto read_int = [&j](std::string_view key) {
    const auto* node = j.find(key);
    return node != nullptr ? static_cast<int>(node->as_int()) : 0;
  };
  health.sites_attempted = read_int("sites_attempted");
  health.sites_retained = read_int("sites_retained");
  health.sites_excluded = read_int("sites_excluded");
  health.sites_degraded = read_int("sites_degraded");
  health.sites_recovered = read_int("sites_recovered");
  health.total_attempts = read_int("total_attempts");
  health.total_retries = read_int("total_retries");
  class_counts_from_json(j.find("attempt_failures"), health.attempt_failures);
  class_counts_from_json(j.find("exclusions"), health.exclusions);
  if (const auto* ranks = j.find("retained_ranks"); ranks && ranks->is_array()) {
    health.retained_ranks.reserve(ranks->size());
    for (std::size_t i = 0; i < ranks->size(); ++i) {
      health.retained_ranks.push_back(static_cast<int>(ranks->at(i).as_int()));
    }
  }
  return health;
}

}  // namespace

void CrawlHealth::merge(const CrawlHealth& other) {
  sites_attempted += other.sites_attempted;
  sites_retained += other.sites_retained;
  sites_excluded += other.sites_excluded;
  sites_degraded += other.sites_degraded;
  sites_recovered += other.sites_recovered;
  total_attempts += other.total_attempts;
  total_retries += other.total_retries;
  for (int c = 0; c < fault::kFailureClassCount; ++c) {
    attempt_failures[c] += other.attempt_failures[c];
    exclusions[c] += other.exclusions[c];
  }
  retained_ranks.insert(retained_ranks.end(), other.retained_ranks.begin(),
                        other.retained_ranks.end());
}

report::Json CrawlHealth::to_json() const {
  auto j = report::Json::object();
  j["sites_attempted"] = sites_attempted;
  j["sites_retained"] = sites_retained;
  j["sites_excluded"] = sites_excluded;
  j["sites_degraded"] = sites_degraded;
  j["sites_recovered"] = sites_recovered;
  j["total_attempts"] = total_attempts;
  j["total_retries"] = total_retries;
  j["exclusion_rate"] = exclusion_rate();
  j["recovery_rate"] = recovery_rate();
  j["attempt_failures"] = class_counts_to_json(attempt_failures);
  j["exclusions"] = class_counts_to_json(exclusions);
  auto ranks = report::Json::array();
  for (const int rank : retained_ranks) ranks.push_back(rank);
  j["retained_ranks"] = std::move(ranks);
  return j;
}

std::string CrawlCheckpoint::to_json_string() const {
  auto j = report::Json::object();
  j["version"] = 2;
  j["next_index"] = next_index;
  j["target_count"] = target_count;
  j["corpus_seed"] = corpus_seed;
  j["fault_seed"] = fault_seed;
  j["threads"] = threads;
  if (archive_sites >= 0) {
    auto archive = report::Json::object();
    archive["sites"] = archive_sites;
    archive["bytes"] = archive_bytes;
    j["archive"] = std::move(archive);
  }
  if (!shard_completed.empty()) {
    auto shards = report::Json::array();
    for (const int done : shard_completed) shards.push_back(done);
    j["shard_completed"] = std::move(shards);
  }
  j["health"] = health.to_json();
  return j.dump(2);
}

std::optional<CrawlCheckpoint> CrawlCheckpoint::from_json_string(
    std::string_view text) {
  const auto parsed = report::Json::parse(text);
  if (!parsed || !parsed->is_object()) return std::nullopt;
  const auto* next_index = parsed->find("next_index");
  const auto* target_count = parsed->find("target_count");
  const auto* health = parsed->find("health");
  if (!next_index || !target_count || !health || !health->is_object()) {
    return std::nullopt;
  }
  CrawlCheckpoint checkpoint;
  checkpoint.next_index = static_cast<int>(next_index->as_int());
  checkpoint.target_count = static_cast<int>(target_count->as_int());
  if (const auto* seed = parsed->find("corpus_seed")) {
    checkpoint.corpus_seed = static_cast<std::uint64_t>(seed->as_int());
  }
  if (const auto* seed = parsed->find("fault_seed")) {
    checkpoint.fault_seed = static_cast<std::uint64_t>(seed->as_int());
  }
  if (const auto* threads = parsed->find("threads")) {
    checkpoint.threads = static_cast<int>(threads->as_int());
  }
  if (const auto* archive = parsed->find("archive");
      archive != nullptr && archive->is_object()) {
    if (const auto* sites = archive->find("sites")) {
      checkpoint.archive_sites = static_cast<int>(sites->as_int());
    }
    if (const auto* bytes = archive->find("bytes")) {
      checkpoint.archive_bytes = bytes->as_int();
    }
  }
  if (const auto* shards = parsed->find("shard_completed");
      shards != nullptr && shards->is_array()) {
    checkpoint.shard_completed.reserve(shards->size());
    for (std::size_t i = 0; i < shards->size(); ++i) {
      checkpoint.shard_completed.push_back(
          static_cast<int>(shards->at(i).as_int()));
    }
  }
  if (checkpoint.next_index < 0 || checkpoint.target_count < 0 ||
      checkpoint.next_index > checkpoint.target_count) {
    return std::nullopt;
  }
  checkpoint.health = health_from_json(*health);
  return checkpoint;
}

fault::FaultPlan Crawler::plan_for(const CrawlOptions& options) const {
  if (!options.fault_plan.has_value()) return {};
  // Key the plan off the corpus seed so distinct corpora fail differently
  // under the same plan parameters.
  fault::FaultPlanParams params = *options.fault_plan;
  params.seed ^= corpus_.params().seed;
  return fault::FaultPlan(params);
}

instrument::VisitLog Crawler::attempt_visit(
    const corpus::SiteVisit& visit, const CrawlOptions& options,
    const fault::FaultDecision& decision,
    const std::vector<browser::Extension*>& extensions,
    TimeMillis clock_shift_ms, int attempt) const {
  const auto& bp = *visit.blueprint;
  const auto& params = corpus_.params();
  const std::uint64_t visit_seed = visit_seed_for(params.seed, bp.rank);

  // Stagger visit start times: the paper's crawl spans days, and identifier
  // timestamps embedded in cookie values must differ across visits. Retry
  // backoff shifts the clock further.
  browser::BrowserConfig browser_config = options.browser_config;
  browser_config.clock_start = attempt_clock_start(
      options.browser_config, bp.rank, visit_seed, clock_shift_ms);

  if (decision.active()) {
    obs::instant(obs::Detail::kCrawl, "fault",
                 fault::failure_class_name(decision.cls),
                 browser_config.clock_start);
  }

  browser::Browser browser(browser_config, visit_seed);
  browser.set_policy(&policy::engine_for(options.policy));
  corpus::attach_site(browser, bp, visit.catalog.get());

  instrument::VisitLog log;
  log.rank = bp.rank;
  log.attempts = attempt + 1;

  fault::VisitFaults faults(
      decision, bp.host,
      visit_seed ^ (0xFA017ULL +
                    static_cast<std::uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL));
  if (decision.active()) {
    if (faults.dns_fails()) {
      browser.dns().inject_failure(bp.host, net::DnsStatus::kNxDomain);
    }
    browser.network().set_fault_hook(
        [&faults](const net::HttpRequest& request) {
          return faults.on_request(request);
        });
    browser.network().set_response_hook(
        [&faults](const net::HttpRequest& request,
                  net::HttpResponse& response) {
          faults.on_response(request, response);
        });
  }

  instrument::Recorder recorder(options.attribution);
  recorder.set_visit_log(&log);
  for (auto* extension : extensions) {
    browser.add_extension(extension);
  }
  browser.add_extension(&recorder);

  const TimeMillis visit_start = browser.clock().now();
  const auto deadline_blown = [&] {
    return options.visit_deadline_ms > 0 &&
           browser.clock().now() - visit_start > options.visit_deadline_ms;
  };
  bool recorder_crashed = false;

  const net::Url landing = net::Url::must_parse("https://" + bp.host + "/");
  auto page = browser.navigate(landing);
  if (!page) {
    log.failure = page.failure;
  } else if (deadline_blown()) {
    log.failure = fault::FailureClass::kDeadlineExceeded;
  } else {
    page->simulate_scroll();

    // Up to three random link clicks with 2 s pauses (§4.2).
    for (int click = 0; click < params.max_clicks; ++click) {
      const auto& links = page->spec().link_paths;
      if (links.empty()) break;
      browser.clock().advance(params.interaction_pause_ms);

      // The extension crash kills the recorder before the first page past
      // its survival index; already-buffered pages stay recorded.
      const int next_page = click + 1;
      if (decision.cls == fault::FailureClass::kExtensionCrash &&
          next_page > decision.crash_after_page && !recorder_crashed) {
        recorder.set_visit_log(nullptr);
        recorder_crashed = true;
      }

      const auto& path = links[browser.rng().below(links.size())];
      auto next = browser.navigate(landing.resolve(path));
      if (!next) {
        log.failure = next.failure;
        break;
      }
      page = std::move(next);
      page->simulate_scroll();
      if (deadline_blown()) {
        log.failure = fault::FailureClass::kDeadlineExceeded;
        break;
      }
    }
  }

  // Post-visit fault effects on the buffered logs. The background service
  // drops a channel whose buffer the fault corrupted — truncated Set-Cookie
  // headers poison the cookie log; a crash loses whichever channel was
  // still buffered client-side.
  if (log.failure == fault::FailureClass::kNone) {
    switch (decision.cls) {
      case fault::FailureClass::kTruncatedHeaders:
        log.has_cookie_logs = false;
        log.failure = decision.cls;
        break;
      case fault::FailureClass::kExtensionCrash:
        if (decision.crash_loses_cookie_channel) {
          log.has_cookie_logs = false;
        } else {
          log.has_request_logs = false;
        }
        log.failure = decision.cls;
        break;
      case fault::FailureClass::kSubresourceFailure:
        log.failure = decision.cls;
        break;
      case fault::FailureClass::kNone:
      case fault::FailureClass::kDnsFailure:       // visit died before logging
      case fault::FailureClass::kConnectTimeout:   // visit died before logging
      case fault::FailureClass::kDeadlineExceeded: // recorded by the deadline path
      case fault::FailureClass::kIncompleteLogs:   // diagnosed by the net below
      case fault::FailureClass::kStorageFailure:   // assigned at archive-write time
        break;
    }
  }

  // Safety net: a log missing a channel with no recorded cause is still
  // unusable for analysis.
  if (log.failure == fault::FailureClass::kNone &&
      !(log.has_cookie_logs && log.has_request_logs)) {
    log.failure = fault::FailureClass::kIncompleteLogs;
  }

  // Visits that died before any page finished never met the recorder; name
  // the site anyway so partial logs are attributable.
  if (log.site_host.empty()) log.site_host = bp.host;
  if (log.site.empty()) log.site = bp.site;

  const TimeMillis visit_end = browser.clock().now();
  obs::span(obs::Detail::kCrawl, "crawl", "attempt", visit_start,
            visit_end - visit_start);
  if (log.failure != fault::FailureClass::kNone &&
      obs::armed(obs::Detail::kCrawl)) {
    obs::instant(obs::Detail::kCrawl, "crawl", "attempt_failed", visit_end,
                 std::string(fault::failure_class_name(log.failure)));
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    m->observe("crawl.visit_ms", visit_ms_bounds(),
               static_cast<double>(visit_end - visit_start));
  }
  return log;
}

instrument::VisitLog Crawler::visit(int index,
                                    const CrawlOptions& options) const {
  // A single clean visit: the measurement content of a site, independent of
  // crawl-pipeline weather. Faults only apply through crawl().
  return attempt_visit(corpus_.site_visit(index), options,
                       fault::FaultDecision{}, options.extra_extensions,
                       /*clock_shift_ms=*/0, /*attempt=*/0);
}

SiteOutcome Crawler::crawl_site(
    int index, const CrawlOptions& options, const fault::FaultPlan& plan,
    const std::vector<browser::Extension*>& extensions) const {
  // One fetch per site: streaming providers generate the blueprint here and
  // free it when `visit` leaves scope at the end of the retry loop.
  const corpus::SiteVisit visit = corpus_.site_visit(index);
  const auto& bp = *visit.blueprint;
  const int max_retries = std::max(options.max_retries, 0);
  const std::uint64_t backoff_seed =
      plan.enabled() ? plan.params().seed : corpus_.params().seed;

  SiteOutcome outcome;
  // Bind this site's observability sinks to the executing thread for the
  // whole retry loop: every layer underneath (event loop, navigation,
  // CookieGuard) emits through the thread-local scope without plumbing.
  // Track rank+1 — track 0 is the merge thread's driver lane.
  if (options.trace != nullptr || options.metrics != nullptr) {
    outcome.obs = std::make_unique<obs::LocalObs>();
    if (options.trace != nullptr) {
      options.trace->arm(*outcome.obs, bp.rank + 1,
                         options.metrics != nullptr);
    } else {
      outcome.obs->metrics_enabled = true;
    }
  }
  obs::ObsScope obs_scope(outcome.obs.get());

  CrawlHealth& delta = outcome.delta;
  bool failed_before = false;
  TimeMillis backoff = 0;

  for (int attempt = 0;; ++attempt) {
    const fault::FaultDecision decision =
        plan.decide(bp.rank, attempt, options.visit_deadline_ms);
    instrument::VisitLog log =
        attempt_visit(visit, options, decision, extensions, backoff, attempt);
    ++delta.total_attempts;
    if (attempt > 0) ++delta.total_retries;
    if (log.failure != fault::FailureClass::kNone) {
      ++delta.attempt_failures[static_cast<int>(log.failure)];
    }

    if (!fault::is_fatal(log.failure)) {
      if (failed_before) ++delta.sites_recovered;
      if (log.failure == fault::FailureClass::kSubresourceFailure) {
        ++delta.sites_degraded;
      }
      outcome.log = std::move(log);
      break;
    }
    failed_before = true;
    if (attempt >= max_retries) {
      outcome.log = std::move(log);
      break;
    }
    // Exponential backoff with deterministic per-(site, attempt) jitter,
    // advanced on the virtual clock via the next attempt's clock shift.
    script::Rng jitter_rng(
        backoff_seed ^
        (0xB0FFULL + static_cast<std::uint64_t>(bp.rank) * 0xD1B54A32D192ED03ULL +
         static_cast<std::uint64_t>(attempt)));
    backoff += options.backoff_base_ms * (TimeMillis{1} << attempt);
    if (options.backoff_jitter_ms > 0) {
      backoff += static_cast<TimeMillis>(jitter_rng.below(
          static_cast<std::uint64_t>(options.backoff_jitter_ms) + 1));
    }
    if (obs::armed(obs::Detail::kCrawl)) {
      const std::uint64_t visit_seed =
          visit_seed_for(corpus_.params().seed, bp.rank);
      obs::instant(obs::Detail::kCrawl, "crawl", "backoff",
                   attempt_clock_start(options.browser_config, bp.rank,
                                       visit_seed, backoff),
                   std::to_string(backoff) + "ms");
    }
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->observe("crawl.backoff_ms", backoff_ms_bounds(),
                 static_cast<double>(backoff));
    }
  }

  ++delta.sites_attempted;
  if (fault::is_fatal(outcome.log.failure)) {
    ++delta.sites_excluded;
    ++delta.exclusions[static_cast<int>(outcome.log.failure)];
  } else {
    ++delta.sites_retained;
    delta.retained_ranks.push_back(bp.rank);
  }

  if (outcome.obs != nullptr) {
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->add("crawl.sites");
      m->add("crawl.attempts", delta.total_attempts);
      m->add("crawl.retries", delta.total_retries);
      m->add(fault::is_fatal(outcome.log.failure) ? "crawl.sites_excluded"
                                                  : "crawl.sites_retained");
      if (delta.sites_degraded > 0) m->add("crawl.sites_degraded");
      if (delta.sites_recovered > 0) m->add("crawl.sites_recovered");
    }
    // Site-level span covering first attempt start through last attempt
    // end, derived from the attempt spans already in the buffer.
    if (outcome.obs->trace.armed(obs::Detail::kCrawl)) {
      TimeMillis lo = 0, hi = 0;
      bool seen = false;
      for (const obs::TraceEvent& event : outcome.obs->trace.events()) {
        if (event.phase != 'X') continue;
        if (!seen || event.ts_ms < lo) lo = event.ts_ms;
        if (!seen || event.ts_ms + event.dur_ms > hi) {
          hi = event.ts_ms + event.dur_ms;
        }
        seen = true;
      }
      if (seen && obs::armed(obs::Detail::kCrawl)) {
        obs::instant(obs::Detail::kCrawl, "crawl", "site_done", hi,
                     outcome.log.site_host);
        obs::span(obs::Detail::kCrawl, "crawl", "site", lo, hi - lo);
      }
    }
  }

  // Encode the site's archive block here, on the shard worker — the
  // serialisation cost parallelises with the crawl; the merge thread only
  // appends bytes. Pure function of the log (and, for delta packs, of the
  // immutable base chain), so the archive stays byte-identical at any
  // thread count.
  if (options.archive != nullptr) {
    if (options.delta_base != nullptr) {
      const int top_wave = options.delta_base->waves() - 1;
      store::Error base_error;
      const auto base_payload =
          options.delta_base->payload_at(outcome.log.rank, top_wave,
                                         &base_error);
      // A base block that cannot be materialized (damaged chain tail)
      // degrades this site to a self-contained raw delta instead of
      // poisoning the whole wave.
      std::optional<std::string_view> base_view;
      if (base_payload) base_view = *base_payload;
      store::WaveBlock wave_block =
          store::make_wave_block(base_view, outcome.log);
      if (wave_block.kind == store::WaveBlock::Kind::kInherited) {
        outcome.archive_kind = SiteOutcome::ArchiveKind::kInherited;
      } else {
        outcome.archive_kind = SiteOutcome::ArchiveKind::kDelta;
        outcome.archive_block = std::move(wave_block.block);
      }
    } else {
      outcome.archive_kind = SiteOutcome::ArchiveKind::kSite;
      outcome.archive_block = store::encode_site_block(outcome.log);
    }
  }
  return outcome;
}

int worker_count(int threads) {
  return threads <= 0 ? runtime::ThreadPool::hardware_threads() : threads;
}

CrawlHealth Crawler::crawl_range(
    int first, int count, CrawlHealth health, const CrawlOptions& options,
    const std::function<void(instrument::VisitLog&&)>& sink) const {
  const int n = std::min(std::max(count, 0), corpus_.size());
  const int begin = std::max(first, 0);
  const fault::FaultPlan plan = plan_for(options);

  int threads =
      std::min(worker_count(options.threads), std::max(n - begin, 1));
  // Shared extension instances cannot be driven from several workers; only
  // the per-worker factory parallelizes extension-bearing crawls.
  if (!options.extra_extensions.empty() && !options.extension_factory) {
    threads = 1;
  }

  // Sites completed per shard worker, for checkpoint diagnostics. Relaxed
  // atomics: the values are a monitoring snapshot, not part of the
  // deterministic merge.
  std::vector<std::atomic<int>> shard_completed(
      threads > 1 ? static_cast<std::size_t>(threads) : 0);

  // The in-order fold: health, sink, progress, and checkpoints all happen
  // here, on the calling thread, once per site in index order — identical
  // whether outcomes arrive from the loop below or from shard workers.
  const auto finish_site = [&](int i, SiteOutcome&& outcome) {
    // Archive append happens FIRST, before the site's tallies fold into
    // health: if the block cannot be persisted even after the writer's
    // internal retry/heal budget, the site is quarantined — reclassified as
    // a kStorageFailure exclusion — and the crawl continues. The delta and
    // the worker's metric increments are rewritten before they merge, so
    // health, metrics, checkpoints, and the archive all agree that the
    // site is excluded (no silent divergence between the in-memory sink
    // and the on-disk block stream).
    bool archive_failed = false;
    if (options.archive != nullptr) {
      switch (outcome.archive_kind) {
        case SiteOutcome::ArchiveKind::kSite:
          archive_failed =
              !outcome.archive_block.empty() &&
              !options.archive->append_site_block(
                  outcome.log.rank, std::move(outcome.archive_block));
          break;
        case SiteOutcome::ArchiveKind::kDelta:
          archive_failed = !options.archive->append_delta_block(
              outcome.log.rank, std::move(outcome.archive_block));
          break;
        case SiteOutcome::ArchiveKind::kInherited:
          // No bytes hit the medium, but a dead writer still cannot
          // record the rank — same quarantine as a failed append.
          archive_failed = !options.archive->add_inherited(outcome.log.rank);
          break;
        case SiteOutcome::ArchiveKind::kNone:
          break;
      }
    }
    if (archive_failed) {
      CrawlHealth& delta = outcome.delta;
      const fault::FailureClass prior = outcome.log.failure;
      obs::MetricsRegistry* site_metrics =
          outcome.obs != nullptr && outcome.obs->metrics_enabled
              ? &outcome.obs->metrics
              : nullptr;
      if (!fault::is_fatal(prior)) {
        --delta.sites_retained;
        ++delta.sites_excluded;
        if (!delta.retained_ranks.empty()) delta.retained_ranks.pop_back();
        if (site_metrics != nullptr) {
          site_metrics->add("crawl.sites_retained", -1);
          site_metrics->add("crawl.sites_excluded");
        }
        if (delta.sites_degraded > 0) {
          --delta.sites_degraded;
          if (site_metrics != nullptr) {
            site_metrics->add("crawl.sites_degraded", -1);
          }
        }
        if (delta.sites_recovered > 0) {
          --delta.sites_recovered;
          if (site_metrics != nullptr) {
            site_metrics->add("crawl.sites_recovered", -1);
          }
        }
      } else {
        // Already excluded for a visit-level reason; the storage loss is
        // the more actionable class, so the exclusion is reclassified.
        --delta.exclusions[static_cast<int>(prior)];
      }
      outcome.log.failure = fault::FailureClass::kStorageFailure;
      ++delta.exclusions[static_cast<int>(fault::FailureClass::kStorageFailure)];
      if (site_metrics != nullptr) {
        site_metrics->add("crawl.sites_quarantined");
      }
      if (options.trace != nullptr) {
        options.trace->driver_instant(
            "crawl", "site_quarantined",
            outcome.log.site_host + ": " +
                options.archive->last_io_error().to_string());
      }
    }
    health.merge(outcome.delta);
    // Flush the site's observability buffers before the sink: trace buffers
    // append (stable-sorted) in site-index order, metrics fold through the
    // commutative merge — both byte-identical at any thread count.
    if (outcome.obs != nullptr) {
      if (options.trace != nullptr) {
        options.trace->append(std::move(outcome.obs->trace));
      }
      if (options.metrics != nullptr && outcome.obs->metrics_enabled) {
        options.metrics->merge(outcome.obs->metrics);
      }
      outcome.obs.reset();
    }
    sink(std::move(outcome.log));
    if (options.on_progress) options.on_progress(i + 1, n);
    if (options.checkpoint_interval > 0 && options.on_checkpoint &&
        (i + 1) % options.checkpoint_interval == 0) {
      // Durability barrier before the checkpoint exists: a checkpoint may
      // only reference archive bytes that survive a crash. If the barrier
      // cannot be established, this emission is skipped — the previous
      // checkpoint remains the recovery point, which is always safe.
      if (options.archive != nullptr &&
          !options.archive->sync_for_checkpoint()) {
        if (options.metrics != nullptr) {
          options.metrics->add("crawl.checkpoints_skipped");
        }
        if (options.trace != nullptr) {
          options.trace->driver_instant(
              "crawl", "checkpoint_skipped",
              options.archive->last_io_error().to_string());
        }
        return;
      }
      CrawlCheckpoint checkpoint;
      checkpoint.next_index = i + 1;
      checkpoint.target_count = n;
      checkpoint.corpus_seed = corpus_.params().seed;
      checkpoint.fault_seed = plan.enabled() ? plan.params().seed : 0;
      checkpoint.threads = threads;
      if (options.archive != nullptr) {
        // The archive reference: the segment holds exactly the merged
        // prefix, since blocks flush in finish_site before this emission.
        checkpoint.archive_sites = options.archive->sites_written();
        checkpoint.archive_bytes =
            static_cast<std::int64_t>(options.archive->bytes_written());
      }
      for (const auto& done : shard_completed) {
        checkpoint.shard_completed.push_back(
            done.load(std::memory_order_relaxed));
      }
      checkpoint.health = health;
      options.on_checkpoint(checkpoint);
      if (options.trace != nullptr) {
        options.trace->driver_instant("crawl", "checkpoint",
                                      "next_index=" + std::to_string(i + 1));
        options.trace->driver_counter("crawl", "sites_completed", i + 1);
      }
    }
  };

  if (threads <= 1) {
    std::vector<browser::Extension*> extensions = options.extra_extensions;
    if (options.extension_factory) {
      for (auto* extension : options.extension_factory(0)) {
        extensions.push_back(extension);
      }
    }
    for (int i = begin; i < n; ++i) {
      finish_site(i, crawl_site(i, options, plan, extensions));
    }
    if (options.scheduler_metrics != nullptr) {
      options.scheduler_metrics->gauge_max("scheduler.workers", 1);
    }
    return health;
  }

  // Sharded path. Each pool worker lazily builds its own extension set the
  // first time it executes a site; a slot is only ever touched by the pool
  // thread that owns it.
  struct WorkerExtensions {
    std::vector<browser::Extension*> installed;
    bool ready = false;
  };
  std::vector<WorkerExtensions> per_worker(
      static_cast<std::size_t>(threads));

  runtime::ShardOptions shard_options;
  shard_options.threads = threads;
  shard_options.queue_capacity = options.result_queue_capacity;
  runtime::ShardedRunner runner(shard_options);
  runner.run<SiteOutcome>(
      begin, n,
      [&](int index, int worker) {
        auto& extensions = per_worker[static_cast<std::size_t>(worker)];
        if (!extensions.ready) {
          if (options.extension_factory) {
            extensions.installed = options.extension_factory(worker);
          }
          extensions.ready = true;
        }
        SiteOutcome outcome =
            crawl_site(index, options, plan, extensions.installed);
        shard_completed[static_cast<std::size_t>(worker)].fetch_add(
            1, std::memory_order_relaxed);
        return outcome;
      },
      [&](int index, SiteOutcome&& outcome) {
        finish_site(index, std::move(outcome));
      });

  // Scheduler diagnostics live in their own registry: steal counts and
  // window occupancy genuinely differ across thread counts, so folding them
  // into `options.metrics` would break its byte-identity guarantee.
  if (options.scheduler_metrics != nullptr) {
    const auto& stats = runner.last_run_stats();
    auto& m = *options.scheduler_metrics;
    m.gauge_max("scheduler.workers", threads);
    m.add("scheduler.tasks_executed", stats.total_executed());
    m.add("scheduler.tasks_stolen", stats.total_stolen());
    m.add("scheduler.merge_pushes", stats.merge.pushes);
    m.add("scheduler.merge_blocked_pushes", stats.merge.blocked_pushes);
    m.gauge_max("scheduler.merge_max_occupancy", stats.merge.max_occupancy);
  }
  return health;
}

CrawlHealth Crawler::crawl(
    int count, const CrawlOptions& options,
    const std::function<void(instrument::VisitLog&&)>& sink) const {
  return crawl_range(0, count, CrawlHealth{}, options, sink);
}

CrawlHealth Crawler::resume(
    const CrawlCheckpoint& checkpoint, const CrawlOptions& options,
    const std::function<void(instrument::VisitLog&&)>& sink) const {
  return crawl_range(checkpoint.next_index, checkpoint.target_count,
                     checkpoint.health, options, sink);
}

}  // namespace cg::crawler
