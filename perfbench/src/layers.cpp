#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "analysis/analyzer.h"
#include "analysis/fold.h"
#include "cookieguard/cookieguard.h"
#include "cookies/cookie_jar.h"
#include "crawler/crawler.h"
#include "net/psl.h"
#include "net/set_cookie.h"
#include "net/url.h"
#include "report/report.h"
#include "store/reader.h"
#include "store/record_codec.h"
#include "store/writer.h"

namespace cgbench {

namespace {

using namespace cg;

// A visit's cookie traffic, prepared outside the timed spans so they time
// the jar alone. Paths are left empty: the default path of a "/" URL.
struct CookieReplay {
  struct Write {
    net::Url source;
    net::ParsedSetCookie cookie;
    TimeMillis time = 0;
    cookies::JarApi api = cookies::JarApi::kScript;
  };
  net::Url document;
  std::vector<Write> writes;  // in log time order
  std::vector<TimeMillis> reads;
};

CookieReplay prepare_replay(const instrument::VisitLog& log) {
  CookieReplay replay;
  replay.document = net::Url::must_parse("https://" + log.site_host + "/");
  for (const auto& set : log.script_sets) {
    CookieReplay::Write w{replay.document, {}, set.time,
                          cookies::JarApi::kScript};
    w.cookie.name = set.cookie_name;
    w.cookie.value = set.value;
    w.cookie.domain = log.site;  // scripts write to the first-party jar
    replay.writes.push_back(std::move(w));
  }
  for (const auto& set : log.http_sets) {
    const auto source = net::Url::parse("https://" + set.response_host + "/");
    if (!source) continue;
    CookieReplay::Write w{*source, {}, set.time, cookies::JarApi::kHttp};
    w.cookie.name = set.cookie_name;
    w.cookie.value = set.value;
    w.cookie.domain = set.setter_domain;
    w.cookie.http_only = set.http_only;
    replay.writes.push_back(std::move(w));
  }
  std::stable_sort(replay.writes.begin(), replay.writes.end(),
                   [](const auto& a, const auto& b) {
                     return a.time < b.time;
                   });
  for (const auto& read : log.reads) replay.reads.push_back(read.time);
  return replay;
}

double ms(double ns) { return ns * 1e-6; }
double us(double ns) { return ns * 1e-3; }

/// What the site probe counted, beside its spans.
struct SiteProbe {
  std::uint64_t cookies_hidden = 0;
  std::uint64_t writes_blocked = 0;
  long long cookie_writes = 0;
  long long cookie_reads = 0;
  std::vector<double> jar_sizes;
  long long requests = 0;
  long long block_bytes = 0;
  // Sizes of every result the probe computed, so none is optimized away.
  std::size_t checksum = 0;
};

}  // namespace

std::unique_ptr<corpus::Corpus> generate_corpus(Tracer& tracer, int sites,
                                                std::uint64_t seed,
                                                double* seconds) {
  corpus::CorpusParams params;
  params.site_count = sites;
  params.seed = seed;
  const std::int64_t start = now_ns();
  Tracer::Scope span(tracer, "corpus.generate", -1);
  auto corpus = std::make_unique<corpus::Corpus>(params);
  if (seconds != nullptr) *seconds = seconds_since(start);
  return corpus;
}

namespace {

/// Site probe: for sites [0, sample) — a clean `Crawler::visit` with and
/// without CookieGuard, the visit's cookies replayed into a fresh jar, its
/// URLs and hosts re-parsed, its block encoded and appended, folded and
/// merged; then the merged summary rendered.
SiteProbe probe_sites(const corpus::Corpus& corpus, int sample,
                      Tracer& tracer) {
  SiteProbe probe;
  crawler::Crawler crawler(corpus);
  const crawler::CrawlOptions plain;
  cookieguard::CookieGuard guard;
  crawler::CrawlOptions guarded;
  guarded.policy = policy::PolicyKind::kCookieGuard;
  guarded.extra_extensions.push_back(&guard);

  store::WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  std::ostringstream sink;
  store::Writer writer(&sink, writer_options);
  analysis::SiteSummary merged;
  const analysis::AnalyzerOptions analyzer_options;

  for (int i = 0; i < sample; ++i) {
    Tracer::Scope site(tracer, "site", i);
    instrument::VisitLog log;
    {
      Tracer::Scope span(tracer, "crawler.visit", i);
      log = crawler.visit(i, plain);
    }
    {
      Tracer::Scope span(tracer, "cookieguard.visit", i);
      (void)crawler.visit(i, guarded);
    }

    const CookieReplay replay = prepare_replay(log);
    cookies::CookieJar jar;
    {
      Tracer::Scope span(tracer, "cookies.write", i);
      for (const auto& w : replay.writes) {
        (void)jar.set(w.source, w.cookie, w.time, w.api);
      }
    }
    std::size_t read_bytes = 0;
    {
      Tracer::Scope span(tracer, "cookies.read", i);
      for (const TimeMillis t : replay.reads) {
        read_bytes += jar.document_cookie_string(replay.document, t).size();
      }
    }
    probe.cookie_writes += static_cast<long long>(replay.writes.size());
    probe.cookie_reads += static_cast<long long>(replay.reads.size());
    probe.jar_sizes.push_back(static_cast<double>(jar.size()));

    std::size_t parsed = 0;
    {
      Tracer::Scope span(tracer, "net.url_parse", i);
      for (const auto& r : log.requests) {
        parsed += net::Url::parse(r.url).has_value() ? 1 : 0;
      }
    }
    std::size_t sites_len = 0;
    {
      Tracer::Scope span(tracer, "net.etld1", i);
      for (const auto& r : log.requests) {
        sites_len += net::etld_plus_one(r.host).size();
      }
    }
    probe.requests += static_cast<long long>(log.requests.size());
    probe.checksum += read_bytes + parsed + sites_len;

    std::string block;
    {
      Tracer::Scope span(tracer, "store.encode", i);
      block = store::encode_site_block(log);
    }
    probe.block_bytes += static_cast<long long>(block.size());
    {
      Tracer::Scope span(tracer, "store.append", i);
      (void)writer.append_site_block(log.rank, std::move(block));
    }

    analysis::SiteSummary folded;
    {
      Tracer::Scope span(tracer, "analysis.fold", i);
      folded = analysis::fold_visit(corpus.entities(), analyzer_options, log);
    }
    {
      Tracer::Scope span(tracer, "analysis.merge", i);
      merged.merge(std::move(folded));
    }
  }
  {
    Tracer::Scope span(tracer, "report.render", -1);
    analysis::Analyzer analyzer(corpus.entities());
    analyzer.apply(std::move(merged));
    probe.checksum += report::summary_to_json(analyzer, 20).dump().size();
  }
  (void)writer.finish();
  probe.cookies_hidden = guard.stats().cookies_hidden;
  probe.writes_blocked = guard.stats().writes_blocked;
  return probe;
}

/// Archive read probe: validate the image, then CRC-check and decode the
/// first `sample` blocks one at a time.
bool probe_archive(const std::string& image, int sample, Tracer& tracer) {
  store::Error error;
  std::optional<store::Reader> reader;
  {
    Tracer::Scope span(tracer, "store.validate", -1);
    reader = store::Reader::from_buffer(image, &error);
  }
  if (!reader) return false;
  const int n = std::min(sample, reader->site_count());
  for (int i = 0; i < n; ++i) {
    const int rank = reader->index()[static_cast<std::size_t>(i)].rank;
    std::optional<std::string_view> payload;
    {
      Tracer::Scope span(tracer, "store.block_crc", rank);
      payload = reader->block_payload(rank, &error);
    }
    if (!payload) return false;
    std::optional<instrument::VisitLog> log;
    {
      Tracer::Scope span(tracer, "store.decode", rank);
      log = store::decode_site_payload(*payload, &error);
    }
    if (!log) return false;
  }
  return true;
}

}  // namespace

QueryPass run_query_pass(const std::string& image,
                         const serve::ServerConfig& config,
                         const std::vector<serve::Query>& queries,
                         Tracer& tracer, std::string* open_error) {
  QueryPass pass;
  store::Error error;
  const std::int64_t open_start = now_ns();
  {
    Tracer::Scope span(tracer, "serve.open", -1);
    auto reader = store::Reader::from_buffer(image, &error);
    if (reader) {
      std::vector<store::Reader> readers;
      readers.push_back(std::move(*reader));
      pass.server =
          serve::Server::from_readers(std::move(readers), config, &error);
    }
  }
  pass.open_s = seconds_since(open_start);
  if (pass.server == nullptr) {
    if (open_error != nullptr) *open_error = error.to_string();
    return pass;
  }
  pass.hashes.resize(queries.size());
  pass.errors.resize(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const int group = static_cast<int>(q);
    Tracer::Scope query(tracer, "query", group);
    report::Json answer;
    {
      Tracer::Scope span(tracer,
                         queries[q].kind == serve::QueryKind::kSite
                             ? "serve.site"
                             : "serve.aggregate",
                         group);
      answer = pass.server->handle(queries[q]);
    }
    std::string text;
    {
      Tracer::Scope span(tracer, "report.dump", group);
      text = answer.dump();
    }
    pass.hashes[q] = fnv64(text);
    pass.errors[q] = answer.find("error") != nullptr;
    pass.error_count += pass.errors[q] ? 1 : 0;
  }
  return pass;
}

namespace {

/// Fills every per-layer metric from a traced pass, except runtime.*,
/// which come from the first nproc-thread crawl (see workloads.cpp).
void report_layers(const Tracer& tracer, const SiteProbe& probe,
                   const QueryPass& queries, const CrawlCounters& counters,
                   double overhead_pct, Result& result) {
  const auto per = [](double total, double count) {
    return count > 0 ? total / count : 0.0;
  };
  const double sites = static_cast<double>(probe.jar_sizes.size());

  result.set("corpus.generate_ms",
             ms(median(tracer.durations("corpus.generate"))), "ms");

  const auto visits = tracer.durations("crawler.visit");
  const auto guarded = tracer.durations("cookieguard.visit");
  result.set("crawler.visit_us_p50", us(median(visits)), "us");
  result.set("crawler.visit_us_p99", us(percentile(visits, 0.99)), "us");

  const double det_sites = counters.deterministic_sites;
  result.set("browser.navigations_per_site",
             per(static_cast<double>(
                     counters.deterministic.counter("browser.navigations")),
                 det_sites),
             "count");
  result.set("eventloop.tasks_per_site",
             per(static_cast<double>(
                     counters.deterministic.counter("eventloop.tasks")),
                 det_sites),
             "count");

  result.set("cookies.write_ns",
             per(tracer.total_ns("cookies.write"),
                 static_cast<double>(probe.cookie_writes)),
             "ns");
  result.set("cookies.read_ns",
             per(tracer.total_ns("cookies.read"),
                 static_cast<double>(probe.cookie_reads)),
             "ns");
  result.set("cookies.jar_size_p50", median(probe.jar_sizes), "count");

  result.set("net.url_parse_ns",
             per(tracer.total_ns("net.url_parse"),
                 static_cast<double>(probe.requests)),
             "ns");
  result.set("net.etld1_ns",
             per(tracer.total_ns("net.etld1"),
                 static_cast<double>(probe.requests)),
             "ns");

  result.set("cookieguard.visit_overhead_us",
             us(median(guarded) - median(visits)), "us");
  result.set("cookieguard.cookies_hidden_per_site",
             per(static_cast<double>(probe.cookies_hidden), sites), "count");
  result.set("policy.writes_blocked_per_site",
             per(static_cast<double>(probe.writes_blocked), sites), "count");


  result.set("store.encode_us", us(median(tracer.durations("store.encode"))),
             "us");
  result.set("store.append_us", us(median(tracer.durations("store.append"))),
             "us");
  result.set("store.block_bytes",
             per(static_cast<double>(probe.block_bytes), sites), "B");
  result.set("store.validate_ms",
             ms(median(tracer.durations("store.validate"))), "ms");
  result.set("store.block_crc_us",
             us(median(tracer.durations("store.block_crc"))), "us");
  result.set("store.decode_us", us(median(tracer.durations("store.decode"))),
             "us");

  result.set("analysis.fold_us", us(median(tracer.durations("analysis.fold"))),
             "us");
  result.set("analysis.merge_us",
             us(median(tracer.durations("analysis.merge"))), "us");
  result.set("report.render_ms",
             ms(median(tracer.durations("report.render"))), "ms");
  result.set("report.dump_us", us(median(tracer.durations("report.dump"))),
             "us");

  const auto site_queries = tracer.durations("serve.site");
  result.set("serve.open_ms", ms(median(tracer.durations("serve.open"))),
             "ms");
  result.set("serve.site_us_p50", us(median(site_queries)), "us");
  result.set("serve.site_us_p99", us(percentile(site_queries, 0.99)), "us");
  result.set("serve.aggregate_us_p50",
             us(median(tracer.durations("serve.aggregate"))), "us");
  const auto cache = queries.server != nullptr
                         ? queries.server->cache().stats()
                         : serve::BlockCache::Stats{};
  result.set("serve.cache_hit_ratio",
             per(static_cast<double>(cache.hits),
                 static_cast<double>(cache.hits + cache.misses)),
             "ratio");
  result.set("serve.cache_evictions", static_cast<double>(cache.evictions),
             "count");

  result.set("trace.overhead_pct", overhead_pct, "%");
}

/// Prints per-layer self time, heaviest first.
void print_self_time(const Tracer& tracer) {
  auto self = tracer.self_ns_by_name();
  std::vector<std::pair<double, std::string>> rows;
  double total = 0;
  for (const auto& [name, ns] : self) {
    rows.emplace_back(ns, name);
    total += ns;
  }
  std::sort(rows.rbegin(), rows.rend());
  std::printf("self time by span (traced pass, %zu spans):\n",
              tracer.spans().size());
  for (const auto& [ns, name] : rows) {
    std::printf("  %-24s %10.1f ms  %5.1f%%\n", name.c_str(), ms(ns),
                total > 0 ? 100.0 * ns / total : 0.0);
  }
}

}  // namespace

QueryPass traced_pass(const Options& options, Tracer& tracer,
                      const corpus::Corpus& corpus, int sample,
                      const std::string& archive, const std::string& served,
                      const serve::ServerConfig& config,
                      const std::vector<serve::Query>& queries,
                      const CrawlCounters& counters, Result& result) {
  // The same work with spans off and on: one untraced warm-up pass, then
  // kOverheadPairs pairs in alternating order, so neither side always
  // runs first. The overhead is the median of the pairs' differences; the
  // spans and figures kept are the last traced pass's.
  constexpr int kOverheadPairs = 3;
  const std::size_t kept_from = tracer.spans().size();
  QueryPass traced;
  SiteProbe probe;
  std::vector<double> overheads_pct;
  bool archive_read = true;
  for (int pair = -1; pair < kOverheadPairs; ++pair) {
    double wall[2] = {0, 0};  // [untraced, traced]
    const bool traced_first = pair % 2 != 0;
    const std::vector<bool> order =
        pair < 0 ? std::vector<bool>{false}
                 : std::vector<bool>{traced_first, !traced_first};
    for (const bool on : order) {
      if (on) tracer.truncate(kept_from);
      tracer.set_enabled(on);
      const std::int64_t start = now_ns();
      probe = probe_sites(corpus, sample, tracer);
      archive_read = probe_archive(archive, sample, tracer) && archive_read;
      std::string open_error;
      QueryPass pass =
          run_query_pass(served, config, queries, tracer, &open_error);
      if (pass.server == nullptr) {
        result.check("traced pass opens its server: " + open_error, false);
      }
      wall[on ? 1 : 0] = seconds_since(start);
      if (on) traced = std::move(pass);
    }
    if (pair < 0) continue;  // the warm-up
    overheads_pct.push_back(100.0 * (wall[1] - wall[0]) / wall[0]);
    std::printf("traced pass pair %d: %.3f s traced vs %.3f s untraced "
                "(%+.2f%%)\n",
                pair, wall[1], wall[0], overheads_pct.back());
  }
  const double overhead_pct = median(overheads_pct);
  result.check("traced pass reads its archive", archive_read);
  report_layers(tracer, probe, traced, counters, overhead_pct, result);
  print_self_time(tracer);
  if (!options.spans_path.empty()) {
    result.check("spans written to " + options.spans_path,
                 tracer.write(options.spans_path, provenance_json(result)));
  }
  return traced;
}

}  // namespace cgbench
