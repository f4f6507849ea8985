// Crawl driver: reproduces the paper's data-collection pipeline (§4.2),
// hardened the way a production fleet has to be.
//
// For each site: launch a fresh browser (fresh profile) with the measurement
// extension preloaded, load the landing page, scroll, click up to three
// random same-site links with 2-second pauses, and collect the visit log.
//
// Visits can fail — the fault plan injects DNS failures, connect timeouts,
// stalled responses, truncated Set-Cookie headers, script-fetch failures,
// and extension crashes — so the pipeline retries each site with
// exponential backoff advanced on the virtual clock, abandons visits that
// blow the per-visit deadline, degrades failed visits to a partial VisitLog
// tagged with its failure class, and checkpoints progress so an interrupted
// crawl resumes to the exact retained-site set of an uninterrupted run.
// Sites still incomplete after the retry budget are excluded from analysis;
// with the default plan ~25% are, matching the paper's 14,917-of-20,000
// retention as an emergent property rather than a coin flip.
//
// The crawl is embarrassingly parallel — every site's RNG seed, virtual
// clock, and fault schedule derive from its index alone — so crawl() shards
// sites across a work-stealing pool (src/runtime/) and merges results on
// the calling thread in site-index order: an N-thread crawl delivers
// byte-identical logs, health, and analysis output to the 1-thread crawl
// (checkpoints differ only in their informational shard diagnostics).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "corpus/corpus.h"
#include "corpus/corpus_view.h"
#include "ext/attribution.h"
#include "fault/fault.h"
#include "instrument/records.h"
#include "obs/trace.h"
#include "policy/partition_policy.h"
#include "report/json.h"

namespace cg::store {
class Writer;
class WaveChain;
}

namespace cg::crawler {

struct CrawlCheckpoint;

struct CrawlOptions {
  /// Extra extensions (e.g. CookieGuard) installed *before* the measurement
  /// recorder, so they filter what the recorder observes. Non-owning.
  std::vector<browser::Extension*> extra_extensions;
  browser::BrowserConfig browser_config;
  ext::AttributionMode attribution = ext::AttributionMode::kLastExternal;

  /// Cookie-partitioning policy installed on every browser the crawl
  /// creates (the defense bake-off's independent variable). kNone is the
  /// status-quo single jar, byte-identical to the pre-policy crawler;
  /// kCookieGuard keeps the jar identical too — pair it with per-worker
  /// CookieGuard extensions via extension_factory. Engines are stateless,
  /// so one shared instance serves every shard worker.
  policy::PolicyKind policy = policy::PolicyKind::kNone;

  /// Fault plan for the crawl. The default plan reproduces the paper's
  /// incomplete-log sites; the corpus seed is folded into the plan seed so
  /// distinct corpora fail differently. Reset to std::nullopt to disable
  /// faults entirely — e.g. for paired with/without-CookieGuard
  /// comparisons where both runs must align.
  std::optional<fault::FaultPlanParams> fault_plan = fault::FaultPlanParams{};

  /// Worker threads for crawl()/resume(): 1 = sequential (default), 0 = all
  /// hardware threads. Any thread count yields byte-identical results —
  /// each site's seed, clock, and fault schedule derive from its index, and
  /// the sharded runner merges sink/health/checkpoint effects on the
  /// calling thread in site-index order.
  int threads = 1;
  /// Bounded reorder window between shard workers and the in-order merger,
  /// in finished visits (backpressure). <= 0 picks a default.
  int result_queue_capacity = 0;
  /// Per-worker extensions for parallel crawls. Extensions are stateful, so
  /// sharded workers cannot share one instance: the factory is called once
  /// per worker (from that worker's thread) and returns the extensions that
  /// worker installs before the recorder on every browser it creates. The
  /// caller keeps ownership, must keep them alive for the whole crawl, and
  /// must not hand one instance to two workers. Extensions whose *behavior*
  /// is deterministic per visit (CookieGuard resets its metadata store each
  /// visit) preserve the byte-identical guarantee. When unset while
  /// `extra_extensions` is non-empty, the crawl falls back to one thread
  /// rather than race the shared instances.
  std::function<std::vector<browser::Extension*>(int worker)>
      extension_factory;

  /// Retries per site beyond the first attempt.
  int max_retries = 2;
  /// Exponential backoff between attempts — base doubles per retry, plus
  /// deterministic per-site jitter — advanced on the virtual clock.
  TimeMillis backoff_base_ms = 60'000;
  TimeMillis backoff_jitter_ms = 20'000;
  /// A visit whose simulated duration exceeds this is abandoned
  /// (kDeadlineExceeded). Generous against the timing model's worst case.
  TimeMillis visit_deadline_ms = 180'000;

  /// Emit a checkpoint to on_checkpoint every N completed sites (0 = off).
  int checkpoint_interval = 0;
  std::function<void(const CrawlCheckpoint&)> on_checkpoint;
  /// Invoked after each site completes (retained or excluded), exactly once
  /// per site in index order regardless of retries: (completed, total).
  std::function<void(int, int)> on_progress;

  /// Observability sinks (non-owning; null = that channel is off, and the
  /// crawl pays only a thread-local pointer test per would-be event).
  ///
  /// `trace` receives the virtual-time trace: per-site spans, attempts,
  /// faults, backoff, checkpoints — plus event-loop/navigation/CookieGuard
  /// events at Detail::kFull. Each site fills a private buffer on its shard
  /// worker; the merge thread appends buffers in site-index order, so the
  /// exported trace is byte-identical at any thread count (unless the
  /// recorder captures wall clocks).
  obs::TraceRecorder* trace = nullptr;
  /// `metrics` receives the site-merged deterministic registry (crawl.*,
  /// eventloop.*, browser.*, cookieguard.* counters and histograms) —
  /// byte-identical serialization at any thread count.
  obs::MetricsRegistry* metrics = nullptr;
  /// `scheduler_metrics` receives scheduler diagnostics (steal counts,
  /// merge-window occupancy/backpressure). These legitimately vary with
  /// thread count and OS timing, which is why they live in a separate
  /// registry instead of polluting the deterministic one.
  obs::MetricsRegistry* scheduler_metrics = nullptr;

  /// CGAR archive receiving every site's visit log (src/store/), retained
  /// and excluded alike — replaying the archive through an Analyzer
  /// reproduces the live crawl's analysis byte-for-byte. Blocks are encoded
  /// on the shard worker that crawled the site (the expensive half) and
  /// appended by the merge thread in site-index order, so the archive is
  /// byte-identical at any thread count. Non-owning; the caller calls
  /// Writer::finish() after the crawl returns.
  store::Writer* archive = nullptr;

  /// Longitudinal delta packing: when set (with `archive`, whose options
  /// must say kind == kDelta and carry the chain tail's BaseProvenance),
  /// each site's log is encoded as a wave block against this chain's
  /// newest wave — byte-identical logs become zero-byte inherited footer
  /// entries, changed sites become kDelta diff blocks. Base payloads are
  /// materialized on the shard worker (the chain is immutable and
  /// thread-safe); a base block that fails to materialize degrades the
  /// site to a self-contained raw delta rather than poisoning the wave.
  /// Checkpoint resume is not supported for delta packs (resume counts
  /// site blocks only). Non-owning.
  const store::WaveChain* delta_base = nullptr;
};

/// Aggregate crawl-pipeline accounting. Byte-identical across runs of the
/// same corpus seed + fault-plan seed (serialise with to_json().dump()).
struct CrawlHealth {
  int sites_attempted = 0;
  int sites_retained = 0;
  int sites_excluded = 0;
  /// Retained despite script-fetch failures (degraded visits).
  int sites_degraded = 0;
  /// Failed at least one attempt but retained after a retry.
  int sites_recovered = 0;
  int total_attempts = 0;
  int total_retries = 0;
  /// Per-failure-class counts, indexed by fault::FailureClass.
  std::array<int, fault::kFailureClassCount> attempt_failures{};
  std::array<int, fault::kFailureClassCount> exclusions{};
  /// Ranks retained for analysis, in rank order.
  std::vector<int> retained_ranks;

  double exclusion_rate() const {
    return sites_attempted > 0
               ? static_cast<double>(sites_excluded) / sites_attempted
               : 0.0;
  }
  /// Initially-failed sites = recovered + excluded (every excluded site
  /// failed its first attempt; every recovery did too).
  double recovery_rate() const {
    const int initially_failed = sites_recovered + sites_excluded;
    return initially_failed > 0
               ? static_cast<double>(sites_recovered) / initially_failed
               : 0.0;
  }

  /// Folds a later shard's accounting into this one: counters add,
  /// retained ranks concatenate in order. Folding per-site deltas in
  /// site-index order reproduces the sequential accounting exactly.
  void merge(const CrawlHealth& other);

  report::Json to_json() const;
};

/// One site's final outcome: the log delivered to the sink plus the site's
/// own CrawlHealth contribution. The crawl — sequential or sharded — folds
/// these in site-index order, which is what makes an N-thread crawl
/// byte-identical to the 1-thread crawl.
struct SiteOutcome {
  instrument::VisitLog log;
  CrawlHealth delta;
  /// The site's trace buffer + metrics registry, filled on the shard worker
  /// and flushed by the merge thread in site-index order. Null when
  /// observability is off.
  std::unique_ptr<obs::LocalObs> obs;
  /// What the shard worker encoded for the archive (merge thread appends
  /// in site-index order): a full site block, a delta-archive block, or an
  /// inherited rank (byte-identical to the base wave — footer entry only).
  enum class ArchiveKind { kNone, kSite, kDelta, kInherited };
  ArchiveKind archive_kind = ArchiveKind::kNone;
  /// The encoded block for kSite/kDelta (store::encode_site_block /
  /// store::make_wave_block); empty otherwise.
  std::string archive_block;
};

/// Crash-safe snapshot of crawl progress: everything needed to continue a
/// killed crawl and land on the identical retained-site set. Serialised via
/// report/json; per-site determinism makes the resume exact.
struct CrawlCheckpoint {
  int next_index = 0;    // sites [0, next_index) are accounted in `health`
  int target_count = 0;  // the crawl's total site count
  std::uint64_t corpus_seed = 0;
  std::uint64_t fault_seed = 0;  // 0 = faults disabled
  CrawlHealth health;

  /// Shard diagnostics from the emitting crawl: worker-thread count and
  /// sites completed per shard worker (beyond the merged prefix) at
  /// emission time. Purely informational — resume needs only the merged
  /// prefix in `next_index`/`health`, so a crawl checkpointed at one
  /// thread count resumes exactly at any other.
  int threads = 1;
  std::vector<int> shard_completed;

  /// Archive-segment reference, set when the crawl packs to a CGAR writer:
  /// site blocks flushed and bytes on disk at emission time. The checkpoint
  /// references the segment rather than inlining per-site records — resume
  /// hands `archive_sites` to store::Writer::resume(), which truncates any
  /// blocks written after the checkpoint so checkpoint + archive replay to
  /// exactly the uninterrupted crawl's archive. -1 = crawl did not pack.
  int archive_sites = -1;
  std::int64_t archive_bytes = 0;

  std::string to_json_string() const;
  static std::optional<CrawlCheckpoint> from_json_string(
      std::string_view text);
};

class Crawler {
 public:
  /// Any CorpusView works: a materialized Corpus, a StreamingCorpus
  /// (1M-site crawls), or an evolve::WaveCorpus. The crawler itself never
  /// holds more than the sites currently in flight.
  explicit Crawler(const corpus::CorpusView& corpus) : corpus_(corpus) {}

  /// Visits site `index` (0-based) and returns its log. Single clean visit:
  /// the fault layer never applies here — this is the measurement content
  /// of a site independent of crawl-pipeline weather.
  instrument::VisitLog visit(int index, const CrawlOptions& options = {}) const;

  /// Crawls sites [0, count) streaming each site's final VisitLog into
  /// `sink` (logs are not retained — the 20k-site crawl would not fit in
  /// memory). Retries faulted sites per the options; excluded sites still
  /// reach the sink, tagged with their failure class. Negative counts crawl
  /// nothing. With options.threads != 1 sites are sharded across a
  /// work-stealing pool; the sink still runs on the calling thread, once
  /// per site, in site-index order.
  CrawlHealth crawl(int count, const CrawlOptions& options,
                    const std::function<void(instrument::VisitLog&&)>& sink)
      const;

  /// Continues a checkpointed crawl from `checkpoint.next_index` to its
  /// target count. The checkpoint's accounting carries over, so the final
  /// CrawlHealth (retained set included) matches an uninterrupted run
  /// byte-for-byte when options and corpus agree.
  CrawlHealth resume(const CrawlCheckpoint& checkpoint,
                     const CrawlOptions& options,
                     const std::function<void(instrument::VisitLog&&)>& sink)
      const;

  /// The fault plan `options` resolves to (plan with the corpus seed folded
  /// in, or disabled) — exposed so benches and tests can inspect the
  /// schedule.
  fault::FaultPlan plan_for(const CrawlOptions& options) const;

  const corpus::CorpusView& corpus() const { return corpus_; }

 private:
  CrawlHealth crawl_range(int first, int count, CrawlHealth health,
                          const CrawlOptions& options,
                          const std::function<void(instrument::VisitLog&&)>&
                              sink) const;

  /// A site's full retry loop: attempts, backoff, and the site's health
  /// delta. Pure function of (index, options, plan) — safe to run on any
  /// shard worker. `extensions` are the worker's own instances.
  SiteOutcome crawl_site(int index, const CrawlOptions& options,
                         const fault::FaultPlan& plan,
                         const std::vector<browser::Extension*>& extensions)
      const;

  /// One attempt at a site: a fresh browser with the attempt's faults
  /// armed. `clock_shift_ms` carries the accumulated retry backoff. The
  /// caller fetches the SiteVisit once per site and reuses it across the
  /// retry loop (one generation per site even when streaming).
  instrument::VisitLog attempt_visit(const corpus::SiteVisit& visit,
                                     const CrawlOptions& options,
                                     const fault::FaultDecision& decision,
                                     const std::vector<browser::Extension*>&
                                         extensions,
                                     TimeMillis clock_shift_ms,
                                     int attempt) const;

  const corpus::CorpusView& corpus_;
};

/// The most worker threads a crawl at CrawlOptions::threads = `threads`
/// runs on: `threads`, or all hardware threads when it is 0 or less.
int worker_count(int threads);

/// One extension `E` per crawl worker, for CrawlOptions::extension_factory.
/// Extensions are stateful, so shard workers cannot share an instance; an
/// `E` whose behaviour is deterministic per visit keeps the crawl
/// byte-identical at any thread count, and its per-worker counters sum to
/// one crawl-wide tally. Every instance is built from the constructor's
/// `args`. The factory points into this object, so it must outlive the
/// crawl.
template <typename E>
class PerWorker {
 public:
  template <typename... Args>
  explicit PerWorker(int threads, const Args&... args) {
    const int workers = worker_count(threads);
    for (int w = 0; w < workers; ++w) {
      instances_.push_back(std::make_unique<E>(args...));
    }
  }
  PerWorker(const PerWorker&) = delete;
  PerWorker& operator=(const PerWorker&) = delete;

  /// Worker `w` installs instance `w`.
  std::function<std::vector<browser::Extension*>(int worker)> factory() {
    return [this](int worker) -> std::vector<browser::Extension*> {
      return {instances_[static_cast<std::size_t>(worker)].get()};
    };
  }

  const std::vector<std::unique_ptr<E>>& instances() const {
    return instances_;
  }

 private:
  std::vector<std::unique_ptr<E>> instances_;
};

}  // namespace cg::crawler
