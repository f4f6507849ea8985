// The pipeline every workload runs, and the four workload definitions.
//
//   set-up     corpus generation (crawl workloads) or server open (serve
//              workloads), several times up front and again in every
//              recorded round: setup_s is the median
//   reference  one untimed crawl of the whole corpus, packed and analyzed
//              live: 1 thread for crawl workloads, nproc threads for the
//              serve workloads' fixture
//   serving    a server on the default-seed fixture (crawl workloads pack
//              it once more, untimed) and one client sending the query
//              stream once: the answers every later answer must equal
//   rounds     a closed-loop window of nproc clients, analyze_archive
//              repetitions, one nproc-thread crawl — repeated until
//              --seconds have passed; every metric is the median over the
//              recorded rounds, except the latency percentiles, which are
//              taken over every query of the recorded windows
//
// README.md says why each workload exists and why the phases interleave.
#include "workloads.h"

#include <atomic>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "cookieguard/cookieguard.h"
#include "crawler/crawler.h"
#include "layers.h"
#include "report/report.h"
#include "store/reader.h"
#include "store/writer.h"

namespace cgbench {

namespace {

using namespace cg;

constexpr std::uint64_t kFixtureCorpusSeed = 0xC00C1EULL;
constexpr int kSites = 1000;           // every workload's corpus
// Set-up samples: before the reference crawl, then more in every recorded
// round, so they span the run like every other metric's.
constexpr int kCorpusReps = 5;         // corpus generations up front
constexpr int kCorpusRepsPerRound = 2;
constexpr int kServerOpens = 3;        // server opens up front; 1 per round
constexpr int kMinRounds = 3;          // recorded rounds per run
// Serve workloads keep adding rounds until the recorded windows hold this
// many latencies (1,000 beyond p99), or twice --seconds have passed.
constexpr std::size_t kMinLatencySamples = 100000;
constexpr int kQueryStream = 3000;     // the query stream the loop cycles
constexpr int kProbeSites = 150;       // traced pass, site probe
constexpr double kWarmLoopS = 0.5;     // the warm-up round's serve window
constexpr std::size_t kTopN = 20;
// serve_cold's block cache: the 1,000-site working set is 16x its size.
constexpr std::size_t kColdCacheEntries = 64;

// Shares of each round's time: analysis gets a fixed share, the crawl
// most of the rest in crawl workloads, the query loop in serve workloads.
constexpr double kAnalyzeShare = 0.2;
double crawl_share(const Workload& workload) {
  return workload.serve_focus ? 0.2 : 0.6;
}

const Workload kWorkloads[] = {
    {.name = "crawl_pack"},
    {.name = "guarded_crawl", .guarded = true},
    {.name = "serve_zipf", .serve_focus = true},
    {.name = "serve_cold", .serve_focus = true, .cold = true},
};

/// One CookieGuard per crawl worker, as `cgsim crawl --policy cookieguard`.
struct Guards {
  std::vector<std::unique_ptr<cookieguard::CookieGuard>> per_worker;
};

crawler::CrawlOptions crawl_options(const Workload& workload, int threads,
                                    Guards& guards) {
  crawler::CrawlOptions options;
  options.threads = threads;
  if (!workload.guarded) return options;
  guards.per_worker.clear();
  for (int i = 0; i < threads; ++i) {
    guards.per_worker.push_back(std::make_unique<cookieguard::CookieGuard>());
  }
  options.policy = policy::PolicyKind::kCookieGuard;
  options.extension_factory = [&guards](int worker) {
    return std::vector<browser::Extension*>{
        guards.per_worker[static_cast<std::size_t>(worker)].get()};
  };
  return options;
}

struct CrawlRun {
  crawler::CrawlHealth health;
  std::string archive;  // empty unless packed
  std::string summary;  // empty unless analyzed live
  analysis::Totals totals;
  double wall_s = 0;
  double cpu_s = 0;
};

/// One crawl of sites [0, count). `pack` streams every site into an
/// in-memory CGAR image; `analyze` ingests every site into a live Analyzer.
/// The crawl and the pack's finish are timed.
CrawlRun crawl_once(const corpus::Corpus& corpus, int count,
                    crawler::CrawlOptions options, bool pack, bool analyze) {
  CrawlRun run;
  crawler::Crawler crawler(corpus);
  store::WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  const fault::FaultPlan plan = crawler.plan_for(options);
  writer_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  if (options.policy == policy::PolicyKind::kCookieGuard) {
    writer_options.policy = store::ArchivePolicy::kCookieGuard;
  }
  std::ostringstream sink;
  std::unique_ptr<store::Writer> writer;
  if (pack) {
    writer = std::make_unique<store::Writer>(&sink, writer_options);
    options.archive = writer.get();
  }
  analysis::Analyzer analyzer(corpus.entities());
  const std::int64_t start = now_ns();
  const double cpu_start = process_cpu_s();
  run.health = crawler.crawl(count, options,
                             [&](instrument::VisitLog&& log) {
                               if (analyze) analyzer.ingest(log);
                             });
  const bool finished = writer == nullptr || writer->finish();
  run.cpu_s = process_cpu_s() - cpu_start;
  run.wall_s = seconds_since(start);
  if (pack && finished) run.archive = sink.str();
  if (analyze) {
    run.summary = report::summary_to_json(analyzer, kTopN).dump();
    run.totals = analyzer.totals();
  }
  return run;
}

long long quarantined(const crawler::CrawlHealth& health) {
  return health.exclusions[static_cast<std::size_t>(
      fault::FailureClass::kStorageFailure)];
}

/// The paper tables from archive bytes: validate, analyze, render. Empty
/// on a rejected archive.
std::string analyze_image(const corpus::Corpus& corpus,
                          const std::string& image) {
  store::Error error;
  auto reader = store::Reader::from_buffer(image, &error);
  if (!reader) return {};
  analysis::Analyzer analyzer(corpus.entities());
  if (!analysis::analyze_archive(*reader, analyzer, &error)) return {};
  return report::summary_to_json(analyzer, kTopN).dump();
}

/// Paper §6 (Figure 5): CookieGuard lowers the share of complete sites
/// with cross-domain exfiltration and overwriting.
void check_guard_effect(const corpus::Corpus& corpus, int threads,
                        const analysis::Totals& guarded, Result& result) {
  crawler::CrawlOptions options;
  options.threads = threads;
  const CrawlRun unguarded =
      crawl_once(corpus, corpus.size(), options, false, true);
  const auto share = [](int sites_with, int complete) {
    return complete > 0 ? static_cast<double>(sites_with) / complete : 0.0;
  };
  const analysis::Totals& u = unguarded.totals;
  const double exfil_u = share(u.sites_doc_exfil, u.sites_complete);
  const double exfil_g = share(guarded.sites_doc_exfil, guarded.sites_complete);
  const double overwrite_u = share(u.sites_doc_overwrite, u.sites_complete);
  const double overwrite_g =
      share(guarded.sites_doc_overwrite, guarded.sites_complete);
  std::printf("CookieGuard: exfiltration share %.4f -> %.4f, overwrite "
              "share %.4f -> %.4f\n",
              exfil_u, exfil_g, overwrite_u, overwrite_g);
  result.check("guarded exfiltration share below unguarded",
               exfil_g < exfil_u);
  result.check("guarded overwrite share below unguarded",
               overwrite_g < overwrite_u);
}

struct LoopWindow {
  long long queries = 0;
  long long mismatches = 0;
  long long errors = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

/// One window of the closed loop: `clients` threads each take the next
/// index of the cycled stream when their last answer returns, until
/// `seconds` have passed. Every answer is hashed against the 1-client
/// pass; the window's latencies go to `latencies_s`.
LoopWindow run_window(const serve::Server& server,
                      const std::vector<serve::Query>& queries,
                      const QueryPass& reference, int clients,
                      double seconds, std::atomic<long long>& next,
                      std::vector<double>& latencies_s) {
  latencies_s.clear();
  LoopWindow window;
  const auto n = static_cast<std::size_t>(clients);
  std::vector<std::vector<double>> per_client(n);
  std::vector<long long> mismatches(n, 0);
  std::vector<long long> errors(n, 0);
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  const double cpu_start = process_cpu_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      per_client[c].reserve(1 << 16);
      for (;;) {
        const std::int64_t sent = now_ns();
        if (sent >= deadline) break;
        const auto q = static_cast<std::size_t>(
            next.fetch_add(1, std::memory_order_relaxed) %
            static_cast<long long>(queries.size()));
        const std::string answer = server.handle_text(queries[q]);
        per_client[c].push_back(static_cast<double>(now_ns() - sent) * 1e-9);
        if (fnv64(answer) != reference.hashes[q]) ++mismatches[c];
        if (reference.errors[q]) ++errors[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  window.wall_s = seconds_since(start);
  window.cpu_s = process_cpu_s() - cpu_start;
  for (std::size_t c = 0; c < n; ++c) {
    window.queries += static_cast<long long>(per_client[c].size());
    window.mismatches += mismatches[c];
    window.errors += errors[c];
    latencies_s.insert(latencies_s.end(), per_client[c].begin(),
                       per_client[c].end());
  }
  return window;
}

/// Everything one run measures, before it is reduced to metrics.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> sites_per_s;
  std::vector<double> cpu_ms_per_site;
  std::vector<double> analyze_s;
  std::vector<double> queries_per_s;
  std::vector<double> cpu_us_per_query;
  std::vector<double> latencies_s;  // every query of the recorded windows
  double peak_rss_mb = 0;
};

/// True when every site block of `part` equals the block of the same rank
/// in `whole` (`part` is a crawl of a prefix of the same corpus).
bool blocks_match(const std::string& part, const std::string& whole) {
  auto a = store::Reader::from_buffer(part);
  auto b = store::Reader::from_buffer(whole);
  if (!a || !b || a->site_count() == 0) return false;
  for (const store::IndexEntry& entry : a->index()) {
    const auto x = a->block_payload(entry.rank);
    const auto y = b->block_payload(entry.rank);
    if (!x || !y || *x != *y) return false;
  }
  return true;
}

/// The archive being served, its query stream, and the 1-client pass
/// whose answers every closed-loop answer must equal.
struct Serving {
  serve::ServerConfig config;
  std::vector<serve::Query> queries;
  QueryPass reference;
  std::atomic<long long> next{0};
  std::vector<double> latencies_s;
  long long sent = 0;  // closed-loop queries, warm-up included
  long long mismatches = 0;
};

/// What every workload's query loop serves: the default-seed fixture's
/// archive, and the live summary of the crawl that packed it.
struct Fixture {
  const corpus::Corpus& corpus;
  const std::string& image;
  const std::string& summary;
};

/// Opens the server on the fixture and runs the 1-client pass; a traced
/// run makes it part of the traced pass over the workload's own `corpus`
/// and `archive`. Serve workloads time the open as their set-up. False if
/// the server did not open.
bool open_serving(const Workload& workload, const Options& options,
                  const Fixture& fixture, const corpus::Corpus& corpus,
                  const std::string& archive, const CrawlCounters& counters,
                  Tracer& tracer, Serving& serving, Samples& samples,
                  Result& result) {
  const std::string& image = fixture.image;
  serve::ServerConfig& config = serving.config;
  serve::WorkloadSpec spec;
  spec.site_count = fixture.corpus.size();
  spec.seed = stream_seed(options);
  if (workload.cold) {
    config.cache.max_entries = kColdCacheEntries;
    spec.zipf_exponent = 0;
  }
  serving.queries = serve::WorkloadGenerator(spec).generate(
      static_cast<std::size_t>(options.queries > 0 ? options.queries
                                                   : kQueryStream));
  result.provenance["query_stream"] = std::to_string(serving.queries.size());
  result.provenance["zipf_exponent"] = std::to_string(spec.zipf_exponent);
  result.provenance["cache_entries"] =
      std::to_string(config.cache.max_entries);

  // The 1-client pass's open is the last set-up sample.
  if (workload.serve_focus && !options.trace) {
    Tracer off(false);
    for (int i = 1; i < kServerOpens; ++i) {
      samples.setup_s.push_back(
          run_query_pass(image, config, {}, off, nullptr).open_s);
    }
  }
  if (options.trace) {
    const int sample = std::min(
        options.sample > 0 ? options.sample : kProbeSites, corpus.size());
    result.provenance["probe_sites"] = std::to_string(sample);
    serving.reference =
        traced_pass(options, tracer, corpus, sample, archive, image, config,
                    serving.queries, counters, result);
  } else {
    serving.reference =
        run_query_pass(image, config, serving.queries, tracer, nullptr);
    if (workload.serve_focus) {
      samples.setup_s.push_back(serving.reference.open_s);
    }
  }
  const serve::Server* server = serving.reference.server.get();
  if (!result.check("server opens the archive", server != nullptr)) {
    return false;
  }
  result.check("1-client pass answers without errors",
               serving.reference.error_count == 0);
  analysis::Analyzer served(fixture.corpus.entities());
  served.apply(analysis::SiteSummary(server->aggregate()));
  result.check("server aggregate equals batch analyze_archive summary",
               report::summary_to_json(served, kTopN).dump() ==
                   fixture.summary);
  return true;
}

/// One closed-loop window; `record` keeps its figures.
void serve_window(Serving& serving, double seconds, bool record,
                  Samples& samples, Result& result) {
  const LoopWindow window =
      run_window(*serving.reference.server, serving.queries,
                 serving.reference, nproc(), seconds, serving.next,
                 serving.latencies_s);
  result.attempted += window.queries;
  result.failed += window.errors;
  serving.sent += window.queries;
  serving.mismatches += window.mismatches;
  if (window.queries == 0) return;
  const double p50 = 1e3 * percentile(serving.latencies_s, 0.50);
  const double p99 = 1e3 * percentile(serving.latencies_s, 0.99);
  std::fprintf(stderr, "loop window: %lld queries, %.3f s wall, %.3f s cpu, "
               "p50 %.4f ms, p99 %.4f ms%s\n", window.queries, window.wall_s,
               window.cpu_s, p50, p99, record ? "" : " (warm-up)");
  if (!record) return;
  samples.queries_per_s.push_back(static_cast<double>(window.queries) /
                                  window.wall_s);
  samples.cpu_us_per_query.push_back(1e6 * window.cpu_s /
                                     static_cast<double>(window.queries));
  samples.latencies_s.insert(samples.latencies_s.end(),
                             serving.latencies_s.begin(),
                             serving.latencies_s.end());
}

/// analyze_archive over `image` until `seconds` have passed (at least
/// once); every summary must equal the live crawl's.
bool analyze_reps(const corpus::Corpus& corpus, const std::string& image,
                  const std::string& live_summary, double seconds,
                  bool record, Samples& samples) {
  const std::int64_t start = now_ns();
  do {
    const std::int64_t rep_start = now_ns();
    const bool same = analyze_image(corpus, image) == live_summary;
    const double rep_s = seconds_since(rep_start);
    std::fprintf(stderr, "analyze rep: %.3f s%s\n", rep_s,
                 record ? "" : " (warm-up)");
    if (!same) return false;
    if (record) samples.analyze_s.push_back(rep_s);
  } while (seconds_since(start) < seconds);
  return true;
}

/// One nproc-thread crawl of the first `count` sites. A crawl of every
/// site must reproduce the reference exactly; a crawl of a prefix must
/// reproduce the reference's blocks (guarded: the first prefix crawl's
/// summary). Returns its wall time.
double crawl_rep(const Workload& workload, const corpus::Corpus& corpus,
                 int count, const CrawlRun& reference, bool record,
                 obs::MetricsRegistry* scheduler, std::string& prefix_summary,
                 bool& identical, Samples& samples, Result& result) {
  Guards guards;
  crawler::CrawlOptions crawl = crawl_options(workload, nproc(), guards);
  crawl.scheduler_metrics = scheduler;
  const CrawlRun run =
      crawl_once(corpus, count, crawl, !workload.guarded, workload.guarded);
  result.attempted += run.health.sites_attempted;
  result.failed += quarantined(run.health);
  if (count == corpus.size()) {
    identical = identical && (workload.guarded
                                  ? run.summary == reference.summary
                                  : run.archive == reference.archive);
  } else if (workload.guarded) {
    if (prefix_summary.empty()) prefix_summary = run.summary;
    identical = identical && run.summary == prefix_summary;
  } else {
    identical = identical && blocks_match(run.archive, reference.archive);
  }
  std::fprintf(stderr, "crawl rep: %d sites, %.3f s wall, %.3f s cpu%s\n",
               count, run.wall_s, run.cpu_s, record ? "" : " (warm-up)");
  if (record) {
    samples.sites_per_s.push_back(count / run.wall_s);
    samples.cpu_ms_per_site.push_back(1e3 * run.cpu_s / count);
  }
  return run.wall_s;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

void corrupt(std::string& image, Corruption how) {
  if (image.empty()) return;
  if (how == Corruption::kFlipByte) image[image.size() / 2] ^= 0x01;
  if (how == Corruption::kTruncate) image.resize(image.size() - 1);
}

void run_workload(const Workload& workload, const Options& options,
                  Result& result) {
  const int sites = options.sites > 0 ? options.sites : kSites;
  const int threads = nproc();
  const std::uint64_t seed =
      workload.serve_focus ? kFixtureCorpusSeed : corpus_seed(options);
  result.provenance["served_corpus_seed"] = std::to_string(kFixtureCorpusSeed);
  // Timed crawls cover half the corpus, so a run fits more rounds; the
  // warm-up crawl covers all of it.
  const int crawl_count = std::max(1, sites / 2);
  result.provenance["corpus_seed"] = std::to_string(seed);
  result.provenance["sites"] = std::to_string(sites);
  result.provenance["sites_per_crawl"] = std::to_string(crawl_count);
  result.provenance["crawl_threads"] = std::to_string(threads);
  result.provenance["clients"] = std::to_string(threads);
  result.provenance["policy"] = workload.guarded ? "cookieguard" : "none";
  Tracer tracer(options.trace);
  Samples samples;

  // Set-up of the crawl workloads: corpus generation.
  std::unique_ptr<corpus::Corpus> corpus;
  for (int i = 0; i < (workload.serve_focus ? 1 : kCorpusReps); ++i) {
    double seconds = 0;
    corpus = generate_corpus(tracer, sites, seed, &seconds);
    if (!workload.serve_focus) samples.setup_s.push_back(seconds);
  }

  // The reference crawl, packed and analyzed live.
  Guards guards;
  CrawlCounters counters;
  crawler::CrawlOptions reference_options =
      crawl_options(workload, workload.serve_focus ? threads : 1, guards);
  reference_options.metrics = &counters.deterministic;
  const CrawlRun reference =
      crawl_once(*corpus, sites, reference_options, true, true);
  counters.deterministic_sites = sites;
  if (!result.check(workload.serve_focus ? "fixture crawl packed"
                                         : "1-thread crawl packed",
                    !reference.archive.empty())) {
    return;
  }
  std::string image = reference.archive;
  corrupt(image, options.corrupt);
  if (!result.check("analyze_archive summary equals the live summary",
                    analyze_reps(*corpus, image, reference.summary, 0, false,
                                 samples))) {
    return;
  }

  // The served fixture: the reference itself for serve workloads; crawl
  // workloads pack it once more, untimed, at nproc threads. A zipf stream
  // over each seed's own corpus would put other sites at its head and move
  // per-query cost by a third between seeds.
  std::unique_ptr<corpus::Corpus> fixture_corpus;
  CrawlRun fixture_crawl;
  if (!workload.serve_focus) {
    Tracer off(false);
    fixture_corpus = generate_corpus(off, sites, kFixtureCorpusSeed, nullptr);
    crawler::CrawlOptions fixture_options;
    fixture_options.threads = threads;
    fixture_crawl =
        crawl_once(*fixture_corpus, sites, fixture_options, true, true);
    if (!result.check("fixture crawl packed",
                      !fixture_crawl.archive.empty())) {
      return;
    }
  }
  const Fixture fixture =
      workload.serve_focus
          ? Fixture{*corpus, image, reference.summary}
          : Fixture{*fixture_corpus, fixture_crawl.archive,
                    fixture_crawl.summary};

  if (workload.serve_focus) reset_peak_rss();  // the server's memory only
  Serving serving;
  if (!open_serving(workload, options, fixture, *corpus, image, counters,
                    tracer, serving, samples, result)) {
    return;
  }

  // Rounds of serve window, analyze, crawl, until --seconds have passed.
  // Interleaving spreads every metric's samples over the whole run, so a
  // slow stretch of a shared host lands on all metrics a little instead of
  // on one metric a lot. Round 0 warms up and is not recorded; a traced
  // run stops after it.
  obs::MetricsRegistry scheduler;  // the warm-up crawl's
  bool identical = true;
  std::string prefix_summary;
  double last_crawl_s = 0;  // the last crawl's wall time, per crawl_count
  int rounds = 0;
  const std::int64_t start = now_ns();
  for (int round = 0;; ++round) {
    // Each round's serve window and analyze time are sized from the last
    // crawl's, in the workload's proportions.
    const bool record = round > 0;
    const double crawl_s = record ? last_crawl_s : 0;
    if (record) {  // more set-up samples, spread over the run
      Tracer off(false);
      if (workload.serve_focus) {
        samples.setup_s.push_back(
            run_query_pass(fixture.image, serving.config, {}, off, nullptr)
                .open_s);
      } else {
        for (int i = 0; i < kCorpusRepsPerRound; ++i) {
          double seconds = 0;
          (void)generate_corpus(off, sites, seed, &seconds);
          samples.setup_s.push_back(seconds);
        }
      }
    }
    const double crawl_part = crawl_share(workload);
    const double serve_share = 1 - crawl_part - kAnalyzeShare;
    serve_window(serving,
                 record ? crawl_s * serve_share / crawl_part : kWarmLoopS,
                 record, samples, result);
    if (round == 0 && workload.serve_focus) samples.peak_rss_mb = peak_rss_mb();
    if (!analyze_reps(*corpus, image, reference.summary,
                      crawl_s * kAnalyzeShare / crawl_part,
                      record, samples)) {
      result.check("analyze_archive summary equals the live summary", false);
      return;
    }
    const int count = record ? crawl_count : sites;
    last_crawl_s = crawl_rep(workload, *corpus, count, reference, record,
                             record ? nullptr : &scheduler, prefix_summary,
                             identical, samples, result) *
                   crawl_count / count;
    rounds = round;
    if (options.trace) break;
    const double elapsed = seconds_since(start);
    const bool enough_latencies =
        !workload.serve_focus ||
        samples.latencies_s.size() >= kMinLatencySamples ||
        elapsed >= 2 * options.seconds;
    if (rounds >= kMinRounds && elapsed >= options.seconds &&
        enough_latencies) {
      break;
    }
  }
  result.provenance["rounds"] = std::to_string(rounds);
  result.provenance["queries_sent"] = std::to_string(serving.sent);
  result.provenance["latency_samples"] =
      std::to_string(samples.latencies_s.size());
  result.check(workload.guarded
                   ? "nproc-thread guarded summaries equal the 1-thread one"
                   : "nproc-thread archives byte-identical to the reference",
               identical);
  result.check("every closed-loop answer equals the 1-client answer",
               serving.mismatches == 0);
  if (workload.guarded) {
    check_guard_effect(*corpus, threads, reference.totals, result);
  }
  if (!workload.serve_focus) samples.peak_rss_mb = peak_rss_mb();

  if (options.trace) {
    result.set("runtime.tasks_stolen",
               static_cast<double>(scheduler.counter("scheduler.tasks_stolen")),
               "count");
    result.set("runtime.merge_blocked_pushes",
               static_cast<double>(
                   scheduler.counter("scheduler.merge_blocked_pushes")),
               "count");
    return;
  }
  std::fprintf(stderr, "set-up: %zu samples, median %.4f s, min %.4f s\n",
               samples.setup_s.size(), median(samples.setup_s),
               percentile(samples.setup_s, 0));
  result.set("setup_s", median(samples.setup_s), "s");
  result.set("sites_per_s", median(samples.sites_per_s), "1/s");
  result.set("cpu_ms_per_site", median(samples.cpu_ms_per_site), "ms");
  result.set("analyze_s", median(samples.analyze_s), "s");
  result.set("archive_bytes_per_site",
             static_cast<double>(reference.archive.size()) / sites, "B");
  result.set("queries_per_s", median(samples.queries_per_s), "1/s");
  result.set("query_p50_ms", 1e3 * percentile(samples.latencies_s, 0.50),
             "ms");
  result.set("query_p99_ms", 1e3 * percentile(samples.latencies_s, 0.99),
             "ms");
  result.set("cpu_us_per_query", median(samples.cpu_us_per_query), "us");
  result.set("peak_rss_mb", samples.peak_rss_mb, "MB");
}

}  // namespace cgbench
