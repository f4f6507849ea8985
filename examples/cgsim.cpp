// cgsim: command-line driver for the CookieGuard simulator.
//
//   cgsim crawl    [--sites N] [--threads T] [--guard] [--no-faults]
//                  [--policy none|cookieguard|fpi|chips]
//                  [--stream] [--wave W] [--evo-seed S] [--totals-only]
//                  [--json FILE] [--pairs-csv FILE] [--domains-csv FILE]
//                  [--health FILE] [--checkpoint FILE] [--checkpoint-every N]
//                  [--resume FILE]
//                  [--trace FILE] [--trace-detail crawl|full]
//                  [--trace-wall-clock] [--metrics FILE]
//                  [--runtime-metrics FILE]
//   cgsim audit    [--sites N] --site INDEX
//   cgsim breakage [--sites N] [--sample K]
//   cgsim perf     [--sites N] [--threads T]
//   cgsim trace-check FILE
//   cgsim pack     [--sites N] [--threads T] [--no-faults] --out FILE
//                  [--policy none|cookieguard|fpi|chips]
//                  [--wave W] [--evo-seed S]
//                  [--base FILE[,FILE...]]
//                  [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]
//                  [--scrub] [--metrics FILE]
//
// --policy selects the cookie-partitioning engine for the defense bake-off
// (src/policy/): none is the status-quo jar and byte-identical to omitting
// the flag; cookieguard = none's jar plus the CookieGuard extension (same
// browsers as --guard); fpi is Firefox First-Party Isolation; chips is
// RFC6265bis partitioned cookies. The active policy is recorded in the
// CGAR footer, hard provenance like the corpus and fault seeds.
//   cgsim query    --archive FILE[,FILE...] [--wave W] [--site RANK]
//                  [--json FILE] [--pairs-csv FILE] [--domains-csv FILE]
//   cgsim verify-archive FILE
//
// pack runs the measurement crawl once and streams it into a CGAR archive
// (src/store/) — crawl once, analyze many times. query replays an archive
// through the analyzer in seconds; verify-archive CRC-walks every block and
// reports the corruption taxonomy class on failure. pack at any thread
// count emits a byte-identical archive, and pack --checkpoint / --resume
// reuses the partial archive segment: the resumed file equals an
// uninterrupted pack byte-for-byte.
//
// Longitudinal waves (src/evolve/ + store delta archives):
//   --stream         crawl from a streaming corpus provider — blueprints
//                    are generated on demand, so memory stays O(shards)
//                    instead of O(sites) (the 1M-site configuration).
//                    Output is byte-identical to the materialized corpus.
//   --wave W         crawl/pack wave W of the evolving corpus (seeded
//                    schedule; wave 0 is byte-identical to the base
//                    corpus). Implies --stream.
//   --evo-seed S     evolution schedule seed (decimal or 0x hex).
//   --totals-only    keep only the Totals counters during analysis —
//                    aggregate state stays O(1) in site count (pairs /
//                    domains / ranked views read empty).
//   pack --base A[,B,...]  pack the next wave as a *delta archive* against
//                    the base+delta chain A,B,...: unchanged sites become
//                    zero-byte inherited footer entries, changed sites
//                    compact diff blocks. The chain tail pins the corpus
//                    (seeds, site count, policy, wave); checkpoint/resume
//                    is not supported for delta packs.
//   query --archive A,B,... [--wave W]  analyzes wave W (default: newest)
//                    by materializing sites through the base+delta chain —
//                    answers are byte-identical to querying an
//                    independently packed full archive of that wave.
//
// --threads 0 (the default for crawl/perf here is 1) uses every hardware
// thread; any thread count produces byte-identical output — including the
// --trace / --metrics files (virtual-time only; --trace-wall-clock
// deliberately trades that identity for real-time annotations).
// trace-check re-parses an exported trace and verifies it is valid Chrome
// trace-event JSON with non-decreasing virtual time on every track.
//
// Everything the benches compute, behind one adoptable binary with
// machine-readable output.
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "breakage/breakage.h"
#include "cookieguard/cookieguard.h"
#include "corpus/corpus.h"
#include "corpus/streaming_corpus.h"
#include "crawler/crawler.h"
#include "entities/entity_map.h"
#include "evolve/wave_corpus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/perf.h"
#include "policy/partition_policy.h"
#include "report/report.h"
#include "runtime/thread_pool.h"
#include "store/atomic_file.h"
#include "store/chain.h"
#include "store/reader.h"
#include "store/writer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

using namespace cg;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// The flag's value as a base-10 integer in [min_value, max_value], or
  /// `fallback` when the flag is absent. A malformed or out-of-range value
  /// exits 2 naming the flag: a crawl that half-parsed --sites 12x has
  /// measured the wrong corpus without saying so.
  int get_int(const std::string& key, int fallback, int min_value,
              int max_value) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const char* text = it->second.c_str();
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || value < min_value ||
        value > max_value) {
      std::fprintf(stderr,
                   "cgsim: --%s must be an integer in [%d, %d], got \"%s\"\n",
                   key.c_str(), min_value, max_value, text);
      std::exit(2);
    }
    return static_cast<int>(value);
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    // Flags without values: --guard
    // Built locally then moved in: a char* assign through the map's
    // operator[] trips the GCC 12 -Wrestrict false positive (PR 105329).
    std::string value = "1";
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value.assign(argv[++i]);
    }
    args.options[key] = std::move(value);
  }
  return args;
}

corpus::Corpus make_corpus(const Args& args) {
  corpus::CorpusParams params;
  params.site_count = args.get_int("sites", 2000, 1, INT_MAX);
  return corpus::Corpus(params);
}

/// --evo-seed: an unsigned 64-bit integer, decimal or 0x hex, or `fallback`
/// when absent. Anything else exits 2, as Args::get_int does.
std::uint64_t parse_seed(const Args& args, std::uint64_t fallback) {
  const std::string text = args.get("evo-seed", "");
  if (text.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 0);
  // strtoull skips blanks and negates a leading '-': require a digit first.
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "cgsim: --evo-seed must be an unsigned 64-bit integer "
                 "(decimal or 0x hex), got \"%s\"\n",
                 text.c_str());
    std::exit(2);
  }
  return value;
}

/// Comma-separated path list (for --base / --archive chains).
std::vector<std::string> split_paths(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The footer-provenance mirror of the crawl's policy flag.
store::ArchivePolicy to_archive_policy(policy::PolicyKind kind) {
  switch (kind) {
    case policy::PolicyKind::kNone:
      return store::ArchivePolicy::kNone;
    case policy::PolicyKind::kCookieGuard:
      return store::ArchivePolicy::kCookieGuard;
    case policy::PolicyKind::kFirstPartyIsolation:
      return store::ArchivePolicy::kFirstPartyIsolation;
    case policy::PolicyKind::kChips:
      return store::ArchivePolicy::kChips;
  }
  return store::ArchivePolicy::kNone;
}

/// Peak resident set size in KiB (0 where unsupported). Reported on stderr
/// only — stdout stays byte-deterministic.
long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;
#endif
  return 0;
}

/// The corpus provider a crawl/pack run uses: materialized by default,
/// streaming under --stream, wave-evolved under --wave/--evo-seed. All
/// three produce byte-identical blueprints for the same (seed, wave).
std::unique_ptr<corpus::CorpusView> make_corpus_view(const Args& args) {
  corpus::CorpusParams params;
  params.site_count = args.get_int("sites", 2000, 1, INT_MAX);
  if (args.has("wave") || args.has("evo-seed")) {
    evolve::EvolutionParams evolution;
    evolution.seed = parse_seed(args, evolution.seed);
    return std::make_unique<evolve::WaveCorpus>(
        params, evolution, args.get_int("wave", 0, 0, INT_MAX));
  }
  if (args.has("stream")) {
    return std::make_unique<corpus::StreamingCorpus>(params);
  }
  return std::make_unique<corpus::Corpus>(params);
}

/// Opens a comma-separated archive list and links it into a wave chain.
/// `readers` owns the archives for the chain's lifetime.
std::optional<store::WaveChain> open_chain(
    const std::vector<std::string>& paths,
    std::vector<store::Reader>* readers) {
  readers->reserve(paths.size());
  for (const std::string& path : paths) {
    store::Error error;
    auto reader = store::Reader::open(path, &error);
    if (!reader) {
      std::fprintf(stderr, "cgsim: cannot open archive %s (%s)\n",
                   path.c_str(), error.to_string().c_str());
      return std::nullopt;
    }
    readers->push_back(std::move(*reader));
  }
  std::vector<const store::Reader*> links;
  links.reserve(readers->size());
  for (const store::Reader& reader : *readers) links.push_back(&reader);
  store::Error error;
  auto chain = store::WaveChain::link(std::move(links), &error);
  if (!chain) {
    std::fprintf(stderr, "cgsim: archive chain rejected (%s)\n",
                 error.to_string().c_str());
  }
  return chain;
}

/// Renders `contents` into `path` via tmp+flush+rename. False (with the
/// failure on stderr) when the result did not land — callers treat their
/// output files as products, never as best-effort side effects.
bool write_output(const std::string& path, const std::string& contents) {
  store::Error error;
  if (!store::write_file_atomic(path, contents, &error)) {
    std::fprintf(stderr, "cgsim: %s\n", error.to_string().c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Summary lines + optional machine-readable outputs, shared by the live
/// crawl and the analyze-from-archive path so their stdout is diffable.
/// False when a requested output file could not be written.
bool print_analysis(const Args& args, const analysis::Analyzer& analyzer) {
  const auto& t = analyzer.totals();
  const double n = t.sites_complete;
  std::printf("sites analyzed: %d\n", t.sites_complete);
  std::printf("cross-domain exfiltration: %.1f%% | overwriting: %.1f%% | "
              "deletion: %.1f%%\n",
              100.0 * t.sites_doc_exfil / n, 100.0 * t.sites_doc_overwrite / n,
              100.0 * t.sites_doc_delete / n);

  bool ok = true;
  if (args.has("json")) {
    std::ostringstream out;
    out << report::summary_to_json(analyzer, 20).dump(2) << '\n';
    ok = write_output(args.get("json", "summary.json"), out.str()) && ok;
  }
  if (args.has("pairs-csv")) {
    std::ostringstream out;
    report::write_pairs_csv(analyzer, 20, out);
    ok = write_output(args.get("pairs-csv", "pairs.csv"), out.str()) && ok;
  }
  if (args.has("domains-csv")) {
    std::ostringstream out;
    report::write_domains_csv(analyzer, 20, out);
    ok = write_output(args.get("domains-csv", "domains.csv"), out.str()) && ok;
  }
  return ok;
}

/// Loads a crawl checkpoint, ignoring (and warning about) a leftover
/// `<path>.tmp` from an interrupted atomic write — its contents were never
/// promoted to truth, so `path` itself is the trustworthy state.
std::optional<crawler::CrawlCheckpoint> load_checkpoint(
    const std::string& path) {
  std::string tmp = path;
  tmp += store::kAtomicTmpSuffix;
  std::error_code tmp_ec;
  if (std::filesystem::exists(tmp, tmp_ec)) {
    std::fprintf(stderr,
                 "cgsim: ignoring leftover %s (interrupted checkpoint write)\n",
                 tmp.c_str());
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cgsim: cannot open checkpoint %s\n", path.c_str());
    return std::nullopt;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (in.bad()) {
    std::fprintf(stderr, "cgsim: read failed on checkpoint %s\n", path.c_str());
    return std::nullopt;
  }
  auto checkpoint = crawler::CrawlCheckpoint::from_json_string(text);
  if (!checkpoint) {
    std::fprintf(stderr, "cgsim: cannot parse checkpoint %s\n", path.c_str());
  }
  return checkpoint;
}

/// Checkpoint emission callback: atomic replace, warn-only on failure (the
/// crawl keeps running; the previous checkpoint stays the recovery point).
std::function<void(const crawler::CrawlCheckpoint&)> checkpoint_writer(
    const std::string& checkpoint_path) {
  return [checkpoint_path](const crawler::CrawlCheckpoint& checkpoint) {
    std::string contents = checkpoint.to_json_string();
    contents += '\n';
    store::Error error;
    if (!store::write_file_atomic(checkpoint_path, contents, &error)) {
      std::fprintf(stderr, "cgsim: checkpoint not persisted: %s\n",
                   error.to_string().c_str());
    }
  };
}

int cmd_crawl(const Args& args) {
  const std::unique_ptr<corpus::CorpusView> corpus_view(make_corpus_view(args));
  const corpus::CorpusView& corpus = *corpus_view;
  crawler::Crawler crawler(corpus);
  analysis::AnalyzerOptions analyzer_options;
  analyzer_options.totals_only = args.has("totals-only");
  analysis::Analyzer analyzer(corpus.entities(), analyzer_options);

  crawler::CrawlOptions options;
  options.threads = args.get_int("threads", 1, 0, INT_MAX);
  if (args.has("no-faults")) options.fault_plan.reset();
  const auto policy_kind = policy::parse_policy(args.get("policy", "none"));
  if (!policy_kind) {
    std::fprintf(stderr,
                 "cgsim: --policy must be none, cookieguard, fpi, or chips\n");
    return 2;
  }
  options.policy = *policy_kind;

  // Observability: stream the trace straight to disk (a 20k-site trace need
  // not fit in memory); metrics registries fold site-by-site and are
  // serialized once at the end.
  std::ofstream trace_out;
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (args.has("trace")) {
    const std::string detail = args.get("trace-detail", "crawl");
    if (detail != "crawl" && detail != "full") {
      std::fprintf(stderr, "cgsim: --trace-detail must be crawl or full\n");
      return 2;
    }
    const std::string trace_path = args.get("trace", "trace.json");
    trace_out.open(trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "cgsim: cannot open %s\n", trace_path.c_str());
      return 1;
    }
    obs::TraceConfig config;
    config.detail =
        detail == "full" ? obs::Detail::kFull : obs::Detail::kCrawl;
    config.capture_wall_clock = args.has("trace-wall-clock");
    recorder = std::make_unique<obs::TraceRecorder>(config, &trace_out);
    options.trace = recorder.get();
  }
  obs::MetricsRegistry metrics;
  obs::MetricsRegistry scheduler_metrics;
  if (args.has("metrics")) options.metrics = &metrics;
  if (args.has("runtime-metrics")) {
    options.scheduler_metrics = &scheduler_metrics;
  }

  // One CookieGuard per crawl worker — extensions are stateful, so each
  // thread needs its own instance (behaviour is per-visit deterministic).
  // --policy cookieguard is the jar-identical engine plus the extension, so
  // it installs the exact same per-worker guards as --guard.
  const bool want_guard =
      args.has("guard") ||
      options.policy == policy::PolicyKind::kCookieGuard;
  std::vector<std::unique_ptr<cookieguard::CookieGuard>> guards;
  if (want_guard) {
    const int workers = options.threads <= 0
                            ? runtime::ThreadPool::hardware_threads()
                            : options.threads;
    for (int w = 0; w < workers; ++w) {
      guards.push_back(std::make_unique<cookieguard::CookieGuard>());
    }
    options.extension_factory =
        [&guards](int worker) -> std::vector<browser::Extension*> {
      return {guards[static_cast<size_t>(worker)].get()};
    };
  }

  // Crash-safe progress: persist a checkpoint every N sites; --resume
  // continues a killed crawl from the persisted file.
  const std::string checkpoint_path = args.get("checkpoint", "");
  if (!checkpoint_path.empty()) {
    options.checkpoint_interval =
        args.get_int("checkpoint-every", 100, 1, INT_MAX);
    options.on_checkpoint = checkpoint_writer(checkpoint_path);
  }

  const auto sink = [&](instrument::VisitLog&& log) { analyzer.ingest(log); };
  crawler::CrawlHealth health;
  if (args.has("resume")) {
    const auto checkpoint = load_checkpoint(args.get("resume", ""));
    if (!checkpoint) return 1;
    if (checkpoint->corpus_seed != corpus.params().seed ||
        checkpoint->target_count > corpus.size()) {
      std::fprintf(stderr, "cgsim: checkpoint does not match this corpus\n");
      return 1;
    }
    std::printf("resuming at site %d of %d...\n", checkpoint->next_index,
                checkpoint->target_count);
    health = crawler.resume(*checkpoint, options, sink);
  } else {
    std::string note;
    if (want_guard) note += " with CookieGuard";
    if (options.policy != policy::PolicyKind::kNone &&
        options.policy != policy::PolicyKind::kCookieGuard) {
      note += " under policy ";
      note += policy::to_string(options.policy);
    }
    if (args.has("wave") || args.has("evo-seed")) {
      note += " at wave ";
      note += std::to_string(args.get_int("wave", 0, 0, INT_MAX));
    } else if (args.has("stream")) {
      note += " (streaming)";
    }
    std::printf("crawling %d sites%s...\n", corpus.size(), note.c_str());
    health = crawler.crawl(corpus.size(), options, sink);
  }

  if (recorder != nullptr) {
    recorder->finish();
    trace_out.flush();
    if (!trace_out.good()) {
      std::fprintf(stderr, "cgsim: writing %s failed\n",
                   args.get("trace", "trace.json").c_str());
      return 1;
    }
    std::printf("wrote %s (%zu trace events)\n",
                args.get("trace", "trace.json").c_str(),
                recorder->event_count());
  }
  if (args.has("metrics")) {
    std::ostringstream out;
    out << metrics.to_json().dump(2) << '\n';
    if (!write_output(args.get("metrics", "metrics.json"), out.str())) {
      return 1;
    }
  }
  if (args.has("runtime-metrics")) {
    std::ostringstream out;
    out << scheduler_metrics.to_json().dump(2) << '\n';
    if (!write_output(args.get("runtime-metrics", "runtime.json"),
                      out.str())) {
      return 1;
    }
  }

  std::printf(
      "crawl health: %d retained, %d excluded (%.1f%%), %d degraded, "
      "%d recovered by retries (%d attempts total)\n",
      health.sites_retained, health.sites_excluded,
      100.0 * health.exclusion_rate(), health.sites_degraded,
      health.sites_recovered, health.total_attempts);
  if (args.has("health")) {
    std::ostringstream out;
    out << health.to_json().dump(2) << '\n';
    if (!write_output(args.get("health", "health.json"), out.str())) return 1;
  }

  // The streaming-crawl RSS gate reads this line; stderr because peak RSS
  // is an OS measurement, not part of the deterministic output.
  std::fprintf(stderr, "cgsim: peak rss: %ld KiB\n", peak_rss_kib());
  return print_analysis(args, analyzer) ? 0 : 1;
}

// Crawl once, analyze many times: pack streams the measurement crawl into a
// CGAR archive. No analyzer runs here — the archive *is* the product.
int cmd_pack(const Args& args) {
  const auto policy_kind = policy::parse_policy(args.get("policy", "none"));
  if (!policy_kind) {
    std::fprintf(stderr,
                 "cgsim: --policy must be none, cookieguard, fpi, or chips\n");
    return 2;
  }

  // Delta packs (--base): the base chain pins the corpus — seeds, site
  // count, policy, wave — so the next wave is crawled from the exact
  // evolving population the base was, and the new archive records the
  // chain tail as its BaseProvenance.
  std::vector<store::Reader> base_readers;
  std::optional<store::WaveChain> base_chain;
  std::unique_ptr<corpus::CorpusView> corpus_view;
  std::uint64_t evolution_seed = 0;
  std::uint32_t wave =
      static_cast<std::uint32_t>(args.get_int("wave", 0, 0, INT_MAX));

  if (args.has("base")) {
    if (args.has("resume") || args.has("checkpoint")) {
      std::fprintf(stderr,
                   "cgsim: checkpoint/resume is not supported for delta "
                   "packs (--base)\n");
      return 2;
    }
    base_chain = open_chain(split_paths(args.get("base", "")), &base_readers);
    if (!base_chain) return 1;
    const store::Reader& tail = base_chain->archive(base_chain->waves() - 1);
    if (to_archive_policy(*policy_kind) != tail.policy()) {
      std::fprintf(
          stderr,
          "cgsim: --policy %s does not match the base chain's recorded "
          "policy %s\n",
          std::string(policy::to_string(*policy_kind)).c_str(),
          std::string(store::archive_policy_name(tail.policy())).c_str());
      return 2;
    }
    if (!args.has("wave")) wave = tail.wave() + 1;
    if (wave <= tail.wave()) {
      std::fprintf(stderr,
                   "cgsim: --wave %u is not later than the base chain's "
                   "wave %u\n",
                   static_cast<unsigned>(wave),
                   static_cast<unsigned>(tail.wave()));
      return 2;
    }
    evolve::EvolutionParams evolution;
    if (tail.evolution_seed() != 0) evolution.seed = tail.evolution_seed();
    evolution.seed = parse_seed(args, evolution.seed);
    if (tail.evolution_seed() != 0 &&
        evolution.seed != tail.evolution_seed()) {
      std::fprintf(stderr,
                   "cgsim: --evo-seed 0x%llX does not match the base "
                   "chain's evolution seed 0x%llX\n",
                   static_cast<unsigned long long>(evolution.seed),
                   static_cast<unsigned long long>(tail.evolution_seed()));
      return 2;
    }
    evolution_seed = evolution.seed;
    corpus::CorpusParams params;
    params.site_count = tail.total_site_count();
    params.seed = tail.corpus_seed();
    if (args.has("sites") &&
        args.get_int("sites", 0, 1, INT_MAX) != params.site_count) {
      std::fprintf(stderr,
                   "cgsim: --sites ignored for delta packs (the base chain "
                   "pins %d sites)\n",
                   params.site_count);
    }
    corpus_view = std::make_unique<evolve::WaveCorpus>(
        params, evolution, static_cast<int>(wave));
  } else {
    corpus_view = make_corpus_view(args);
    if (args.has("wave") || args.has("evo-seed")) {
      evolve::EvolutionParams defaults;
      evolution_seed = parse_seed(args, defaults.seed);
    }
  }
  const corpus::CorpusView& corpus = *corpus_view;
  crawler::Crawler crawler(corpus);

  crawler::CrawlOptions options;
  options.threads = args.get_int("threads", 1, 0, INT_MAX);
  if (args.has("no-faults")) options.fault_plan.reset();
  options.policy = *policy_kind;
  if (base_chain) options.delta_base = &*base_chain;

  const std::string out_path = args.get("out", "crawl.cgar");
  store::WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  const fault::FaultPlan plan = crawler.plan_for(options);
  writer_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  writer_options.policy = to_archive_policy(options.policy);
  writer_options.wave = wave;
  writer_options.evolution_seed = evolution_seed;
  if (base_chain) {
    const store::Reader& tail = base_chain->archive(base_chain->waves() - 1);
    if (writer_options.fault_seed != tail.fault_seed()) {
      std::fprintf(stderr,
                   "cgsim: a delta wave must crawl under the base chain's "
                   "fault plan (base fault seed 0x%llX, this crawl 0x%llX — "
                   "%s)\n",
                   static_cast<unsigned long long>(tail.fault_seed()),
                   static_cast<unsigned long long>(writer_options.fault_seed),
                   tail.fault_seed() == 0 ? "pass --no-faults"
                                          : "drop --no-faults");
      return 2;
    }
    writer_options.kind = store::ArchiveKind::kDelta;
    store::BaseProvenance base;
    base.corpus_seed = tail.corpus_seed();
    base.fault_seed = tail.fault_seed();
    base.evolution_seed = tail.evolution_seed();
    base.policy = tail.policy();
    base.wave = tail.wave();
    base.site_count = static_cast<std::uint32_t>(tail.total_site_count());
    base.footer_crc = tail.footer_crc();
    writer_options.base = base;
  }

  const std::string checkpoint_path = args.get("checkpoint", "");
  if (!checkpoint_path.empty()) {
    options.checkpoint_interval =
        args.get_int("checkpoint-every", 100, 1, INT_MAX);
  }
  // Self-healing I/O: read-back-verify appended blocks on request, and when
  // checkpointing, keep the unsynced tail in memory so an fsync loss at the
  // checkpoint barrier is healed instead of killing the pack.
  writer_options.io.scrub_writes = args.has("scrub");
  writer_options.io.buffer_unsynced = options.checkpoint_interval > 0;
  obs::MetricsRegistry pack_metrics;
  writer_options.metrics = &pack_metrics;
  if (args.has("metrics")) options.metrics = &pack_metrics;

  std::unique_ptr<store::Writer> writer;
  store::Error store_error;
  crawler::CrawlHealth health;

  if (args.has("resume")) {
    const auto checkpoint = load_checkpoint(args.get("resume", ""));
    if (!checkpoint) return 1;
    if (checkpoint->corpus_seed != corpus.params().seed ||
        checkpoint->target_count > corpus.size()) {
      std::fprintf(stderr, "cgsim: checkpoint does not match this corpus\n");
      return 1;
    }
    if (checkpoint->archive_sites < 0) {
      std::fprintf(stderr,
                   "cgsim: checkpoint has no archive segment — it was "
                   "written by `crawl`, not `pack`\n");
      return 1;
    }
    // The checkpoint references the archive segment; the writer truncates
    // any blocks written after it and appends from there.
    writer = store::Writer::resume(out_path, writer_options,
                                   checkpoint->archive_sites, &store_error);
    if (writer == nullptr) {
      std::fprintf(stderr, "cgsim: cannot resume archive %s (%s)\n",
                   out_path.c_str(), store_error.to_string().c_str());
      return 1;
    }
    options.archive = writer.get();
    if (!checkpoint_path.empty()) {
      options.on_checkpoint = checkpoint_writer(checkpoint_path);
    }
    std::printf("resuming pack at site %d of %d (%d blocks kept)...\n",
                checkpoint->next_index, checkpoint->target_count,
                writer->sites_written());
    health = crawler.resume(*checkpoint, options,
                            [](instrument::VisitLog&&) {});
  } else {
    writer = store::Writer::create(out_path, writer_options, &store_error);
    if (writer == nullptr) {
      std::fprintf(stderr, "cgsim: %s\n", store_error.to_string().c_str());
      return 1;
    }
    options.archive = writer.get();
    if (!checkpoint_path.empty()) {
      options.on_checkpoint = checkpoint_writer(checkpoint_path);
    }
    if (base_chain) {
      std::printf("packing wave %u of %d sites into %s (delta vs wave %u)...\n",
                  static_cast<unsigned>(wave), corpus.size(),
                  out_path.c_str(),
                  static_cast<unsigned>(
                      base_chain->archive(base_chain->waves() - 1).wave()));
    } else {
      std::printf("packing %d sites into %s...\n", corpus.size(),
                  out_path.c_str());
    }
    health = crawler.crawl(corpus.size(), options,
                           [](instrument::VisitLog&&) {});
  }

  if (!writer->finish(&store_error)) {
    std::fprintf(stderr, "cgsim: finalising %s failed (%s)\n",
                 out_path.c_str(), store_error.to_string().c_str());
    return 1;
  }
  std::printf(
      "crawl health: %d retained, %d excluded (%.1f%%), %d attempts total\n",
      health.sites_retained, health.sites_excluded,
      100.0 * health.exclusion_rate(), health.total_attempts);
  const int quarantined = health.exclusions[static_cast<int>(
      fault::FailureClass::kStorageFailure)];
  if (quarantined > 0) {
    std::printf("storage quarantine: %d sites excluded after exhausting the "
                "I/O retry budget\n",
                quarantined);
  }
  if (args.has("metrics")) {
    std::ostringstream out;
    out << pack_metrics.to_json().dump(2) << '\n';
    if (!write_output(args.get("metrics", "metrics.json"), out.str())) {
      return 1;
    }
  }
  if (base_chain) {
    const int total = writer->sites_written() + writer->inherited_written();
    std::printf(
        "wrote %s: wave %u, %d sites (%d delta blocks + %d inherited), "
        "%llu bytes\n",
        out_path.c_str(), static_cast<unsigned>(wave), total,
        writer->sites_written(), writer->inherited_written(),
        static_cast<unsigned long long>(writer->bytes_written()));
  } else {
    std::printf("wrote %s: %d sites, %llu bytes (%.1f bytes/site)\n",
                out_path.c_str(), writer->sites_written(),
                static_cast<unsigned long long>(writer->bytes_written()),
                writer->sites_written() > 0
                    ? static_cast<double>(writer->bytes_written()) /
                          writer->sites_written()
                    : 0.0);
  }
  return 0;
}

// Analyze-from-archive: everything `crawl` computes, without crawling.
int cmd_query(const Args& args) {
  const std::vector<std::string> paths = split_paths(args.get("archive", ""));
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: cgsim query --archive FILE[,FILE...] [--wave W] "
                 "[--site RANK]\n");
    return 2;
  }
  store::Error error;

  // Trend queries: a multi-archive list (or any delta archive, or an
  // explicit --wave) is a base+delta chain; sites are materialized through
  // it, and the answers for a wave are byte-identical to querying an
  // independently packed full archive of that wave.
  bool chain_query = paths.size() > 1 || args.has("wave");
  std::vector<store::Reader> readers;
  readers.reserve(paths.size());
  for (const std::string& path : paths) {
    auto opened = store::Reader::open(path, &error);
    if (!opened) {
      std::fprintf(stderr, "cgsim: cannot open archive %s (%s)\n",
                   path.c_str(), error.to_string().c_str());
      return 1;
    }
    if (opened->kind() == store::ArchiveKind::kDelta) chain_query = true;
    readers.push_back(std::move(*opened));
  }

  if (chain_query) {
    std::vector<const store::Reader*> links;
    links.reserve(readers.size());
    for (const store::Reader& r : readers) links.push_back(&r);
    const auto chain = store::WaveChain::link(std::move(links), &error);
    if (!chain) {
      std::fprintf(stderr, "cgsim: archive chain rejected (%s)\n",
                   error.to_string().c_str());
      return 1;
    }
    int wave_index = chain->waves() - 1;
    if (args.has("wave")) {
      const auto want =
          static_cast<std::uint32_t>(args.get_int("wave", 0, 0, INT_MAX));
      wave_index = -1;
      for (int i = 0; i < chain->waves(); ++i) {
        if (chain->archive(i).wave() == want) wave_index = i;
      }
      if (wave_index < 0) {
        std::fprintf(stderr, "cgsim: wave %u is not in this chain\n",
                     static_cast<unsigned>(want));
        return 1;
      }
    }
    // The entity map is the builtin static table (Corpus::entities()
    // returns the same), so no corpus reconstruction is needed.
    analysis::Analyzer analyzer(entities::EntityMap::builtin());
    if (args.has("site")) {
      const int rank = args.get_int("site", 0, 1, INT_MAX);
      const auto log = chain->visit(rank, wave_index, &error);
      if (!log) {
        std::fprintf(stderr, "cgsim: site %d: %s\n", rank,
                     error.to_string().c_str());
        return 1;
      }
      analyzer.ingest(*log);
      std::printf("https://%s/ — %zu script inclusions, %zu cookie writes, "
                  "%zu requests (attempts: %d, failure: %s)\n",
                  log->site_host.c_str(), log->includes.size(),
                  log->script_sets.size(), log->requests.size(),
                  log->attempts,
                  std::string(fault::failure_class_name(log->failure))
                      .c_str());
      std::printf("%s\n",
                  report::summary_to_json(analyzer, 10).dump(2).c_str());
      return 0;
    }
    if (!analysis::analyze_wave(*chain, wave_index, analyzer, &error)) {
      std::fprintf(stderr, "cgsim: archive chain is corrupt (%s)\n",
                   error.to_string().c_str());
      return 1;
    }
    return print_analysis(args, analyzer) ? 0 : 1;
  }

  const std::string& path = paths.front();
  const store::Reader* reader = &readers.front();

  // Rebuild the corpus the archive was packed from — the entity map drives
  // the analyzer, and provenance in the footer pins the exact corpus.
  corpus::CorpusParams params;
  params.site_count = reader->site_count();
  params.seed = reader->corpus_seed();
  corpus::Corpus corpus(params);

  if (args.has("site")) {
    const int rank = args.get_int("site", 0, 1, INT_MAX);
    // Footer-index random access: one binary search + one block decode,
    // never a file walk. The latency line on stderr makes that visible
    // (and regressing to a scan impossible to miss); stdout stays
    // byte-deterministic.
    const auto lookup_start =
        std::chrono::steady_clock::now();  // cglint: allow(D1) — per-query latency diagnostic on stderr; stdout bytes never depend on it
    const auto log = reader->visit(rank, &error);
    const std::chrono::duration<double, std::micro> lookup_elapsed =
        std::chrono::steady_clock::now() - lookup_start;  // cglint: allow(D1) — per-query latency diagnostic on stderr; stdout bytes never depend on it
    if (!log) {
      std::fprintf(stderr, "cgsim: site %d: %s\n", rank,
                   error.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "cgsim: site %d decoded in %.1f us (index random access, "
                 "%d-site archive)\n",
                 rank, lookup_elapsed.count(), reader->site_count());
    analysis::Analyzer analyzer(corpus.entities());
    analyzer.ingest(*log);
    std::printf("https://%s/ — %zu script inclusions, %zu cookie writes, "
                "%zu requests (attempts: %d, failure: %s)\n",
                log->site_host.c_str(), log->includes.size(),
                log->script_sets.size(), log->requests.size(), log->attempts,
                std::string(fault::failure_class_name(log->failure)).c_str());
    std::printf("%s\n", report::summary_to_json(analyzer, 10).dump(2).c_str());
    return 0;
  }

  analysis::Analyzer analyzer(corpus.entities());
  if (!analysis::analyze_archive(*reader, analyzer, &error)) {
    std::fprintf(stderr, "cgsim: archive %s is corrupt (%s)\n", path.c_str(),
                 error.to_string().c_str());
    return 1;
  }
  return print_analysis(args, analyzer) ? 0 : 1;
}

// CRC-walks every block; the cheap "is this artifact intact?" gate.
int cmd_verify_archive(const std::string& path) {
  store::Error error;
  const auto reader = store::Reader::open(path, &error);
  if (!reader) {
    std::fprintf(stderr, "cgsim: %s: rejected (%s)\n", path.c_str(),
                 error.to_string().c_str());
    return 1;
  }
  const auto stats = reader->verify(&error);
  if (!stats) {
    std::fprintf(stderr, "cgsim: %s: corrupt (%s)\n", path.c_str(),
                 error.to_string().c_str());
    return 1;
  }
  std::printf(
      "%s: ok — %d sites, %llu records, %llu bytes (%.1f bytes/site), "
      "format v%u, schema v%u, corpus seed 0x%llX\n",
      path.c_str(), stats->sites,
      static_cast<unsigned long long>(stats->record_count),
      static_cast<unsigned long long>(stats->file_bytes),
      stats->sites > 0
          ? static_cast<double>(stats->file_bytes) / stats->sites
          : 0.0,
      static_cast<unsigned>(store::kFormatVersion),
      static_cast<unsigned>(reader->schema_version()),
      static_cast<unsigned long long>(reader->corpus_seed()));
  std::printf("provenance: policy %s, %s archive, wave %u",
              std::string(store::archive_policy_name(reader->policy()))
                  .c_str(),
              std::string(store::archive_kind_name(reader->kind())).c_str(),
              static_cast<unsigned>(reader->wave()));
  if (reader->kind() == store::ArchiveKind::kDelta) {
    std::printf(" (base wave %u, %zu inherited ranks)",
                static_cast<unsigned>(reader->base().wave),
                reader->inherited_ranks().size());
  }
  std::printf("\n");
  return 0;
}

int cmd_audit(const Args& args) {
  corpus::Corpus corpus(make_corpus(args));
  const int index = args.get_int("site", 0, 0, corpus.size() - 1);
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;  // visit() never applies the fault plan
  const auto log = crawler.visit(index, options);

  analysis::Analyzer analyzer(corpus.entities());
  analyzer.ingest(log);
  std::printf("https://%s/ — %zu script inclusions, %zu cookie writes, "
              "%zu requests\n",
              corpus.site(index).host.c_str(), log.includes.size(),
              log.script_sets.size(), log.requests.size());
  std::printf("%s\n", report::summary_to_json(analyzer, 10).dump(2).c_str());
  return 0;
}

int cmd_breakage(const Args& args) {
  corpus::Corpus corpus(make_corpus(args));
  breakage::BreakageEvaluator evaluator(corpus);
  const auto sample = evaluator.sample_sites(
      args.get_int("sample", 100, 1, INT_MAX), corpus.size());
  for (const auto mode :
       {breakage::GuardMode::kStrict, breakage::GuardMode::kEntityGrouping,
        breakage::GuardMode::kGroupingPlusPolicies}) {
    const auto summary = evaluator.summarize(sample, mode);
    std::printf("%-42s major breakage on %.1f%% of %d sites\n",
                breakage::to_string(mode),
                100.0 * summary.sites_major / summary.sites, summary.sites);
  }
  return 0;
}

// Validates an exported trace: parses it with report::Json (so any
// serialization bug that breaks JSON fails here), checks the Chrome
// trace-event envelope, and verifies every track's events are
// non-decreasing in virtual time — the determinism contract of the
// stable-sorted per-site merge. (Global monotonicity is deliberately not
// required: site clocks are staggered and retries shift them, so a later
// track can legitimately start before an earlier track's retries end.)
int cmd_trace_check(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cgsim: cannot open %s\n", path.c_str());
    return 1;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto parsed = report::Json::parse(text);
  if (!parsed || !parsed->is_object()) {
    std::fprintf(stderr, "cgsim: %s is not valid JSON\n", path.c_str());
    return 1;
  }
  const auto* events = parsed->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "cgsim: %s has no traceEvents array\n", path.c_str());
    return 1;
  }

  std::map<long long, long long> last_ts_by_track;
  std::size_t spans = 0, instants = 0, counters = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const auto& event = events->at(i);
    const auto* ph = event.find("ph");
    const auto* tid = event.find("tid");
    const auto* ts = event.find("ts");
    if (ph == nullptr || !ph->is_string() || tid == nullptr ||
        ts == nullptr || event.find("name") == nullptr ||
        event.find("pid") == nullptr) {
      std::fprintf(stderr, "cgsim: event %zu is missing required fields\n", i);
      return 1;
    }
    const std::string& phase = ph->as_string();
    if (phase == "X") {
      ++spans;
      if (event.find("dur") == nullptr) {
        std::fprintf(stderr, "cgsim: complete event %zu has no dur\n", i);
        return 1;
      }
    } else if (phase == "i") {
      ++instants;
    } else if (phase == "C") {
      ++counters;
    } else {
      std::fprintf(stderr, "cgsim: event %zu has unexpected phase %s\n", i,
                   phase.c_str());
      return 1;
    }
    const long long track = tid->as_int();
    const long long when = ts->as_int();
    const auto it = last_ts_by_track.find(track);
    if (it != last_ts_by_track.end() && when < it->second) {
      std::fprintf(stderr,
                   "cgsim: event %zu goes back in time on track %lld "
                   "(%lld < %lld)\n",
                   i, track, when, it->second);
      return 1;
    }
    last_ts_by_track[track] = when;
  }
  std::printf(
      "%s: ok — %zu events (%zu spans, %zu instants, %zu counter samples) "
      "on %zu tracks, non-decreasing virtual time per track\n",
      path.c_str(), events->size(), spans, instants, counters,
      last_ts_by_track.size());
  return 0;
}

int cmd_perf(const Args& args) {
  corpus::Corpus corpus(make_corpus(args));
  const auto comparison = perf::compare_page_load(
      corpus, corpus.size(), {}, args.get_int("threads", 1, 0, INT_MAX));
  std::printf("load event: %.0f ms -> %.0f ms (overhead %.0f ms)\n",
              comparison.normal.load_event.mean_ms,
              comparison.guarded.load_event.mean_ms,
              comparison.mean_overhead_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.command == "crawl") return cmd_crawl(args);
  if (args.command == "audit") return cmd_audit(args);
  if (args.command == "breakage") return cmd_breakage(args);
  if (args.command == "perf") return cmd_perf(args);
  if (args.command == "trace-check") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: cgsim trace-check FILE\n");
      return 2;
    }
    return cmd_trace_check(argv[2]);
  }
  if (args.command == "pack") return cmd_pack(args);
  if (args.command == "query") return cmd_query(args);
  if (args.command == "verify-archive") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: cgsim verify-archive FILE\n");
      return 2;
    }
    return cmd_verify_archive(argv[2]);
  }
  std::fprintf(stderr,
               "usage: cgsim <crawl|audit|breakage|perf|trace-check|pack|"
               "query|verify-archive>\n"
               "             [--sites N] [--threads T] [--guard] "
               "[--policy none|cookieguard|fpi|chips] [--site I] "
               "[--sample K]\n"
               "             [--stream] [--wave W] [--evo-seed S] "
               "[--totals-only] [--base FILE,...]\n"
               "             [--json FILE] [--pairs-csv FILE] "
               "[--domains-csv FILE]\n"
               "             [--trace FILE] [--metrics FILE] "
               "[--runtime-metrics FILE]\n"
               "             [--out FILE] [--archive FILE[,FILE...]]\n");
  return 2;
}
