// Shared helpers for the experiment-reproduction binaries.
//
// Every bench crawls the synthetic corpus (default: the paper's 20,000
// sites; override with CG_SITES=<n> for quick runs) and prints the same
// rows/series as the corresponding paper table or figure, with the paper's
// reported value alongside for comparison.
//
// Each bench parses its command line with cli::parse_or_exit, declaring
// the flags it reads. Crawls shard across worker threads (`--threads N`,
// default: all hardware threads) — byte-identical output at any thread
// count, see src/runtime/. `--trace FILE` on a bench using
// trace_recorder_from_args exports the crawl as Chrome trace-event JSON.
//
// A malformed CG_SITES or flag value is a hard error (exit 2), not a silent
// fallback: a bench that quietly ran with the wrong corpus size has
// produced hours of wrong numbers before anyone notices.
#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "analysis/analyzer.h"
#include "analysis/archive.h"
#include "cli/args.h"
#include "corpus/corpus.h"
#include "crawler/crawler.h"
#include "obs/trace.h"
#include "policy/partition_policy.h"
#include "runtime/thread_pool.h"
#include "store/reader.h"

namespace cg::bench {

/// The integer environment knob `name` in [min_value, max_value], or
/// `fallback` when it is unset. A malformed value exits 2 naming it.
inline int env_int(const cli::Args& args, const char* name, int fallback,
                   int min_value, int max_value) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  return static_cast<int>(
      cli::uint_or_exit(args.prog, name, text, min_value, max_value));
}

inline int corpus_sites_from_env(const cli::Args& args, int fallback = 20000) {
  return env_int(args, "CG_SITES", fallback, 1, INT_MAX);
}

inline corpus::CorpusParams default_params(const cli::Args& args) {
  corpus::CorpusParams params;
  params.site_count = corpus_sites_from_env(args);
  return params;
}

/// Worker threads for the measurement crawl: `--threads N`, where 0 (the
/// default) means every hardware thread.
inline int threads_from_args(const cli::Args& args) {
  const int n = args.get_int("threads", 0, 0, INT_MAX);
  return n > 0 ? n : runtime::ThreadPool::hardware_threads();
}

/// Partitioning engine for the defense bake-off: `--policy NAME`, else
/// none. Accepts the cgsim grammar (none/cookieguard/fpi/chips); anything
/// else exits 2 — a bench that silently fell back to the wrong defense has
/// produced hours of wrong numbers before anyone notices.
inline policy::PolicyKind policy_from_args(const cli::Args& args) {
  const std::string name = args.get("policy", "none");
  const auto kind = policy::parse_policy(name);
  if (!kind) {
    std::fprintf(stderr,
                 "%s: --policy must be none, cookieguard, fpi, or chips, "
                 "got \"%s\"\n",
                 args.prog.c_str(), name.c_str());
    std::exit(2);
  }
  return *kind;
}

/// A streaming TraceRecorder for `--trace FILE`, or null when tracing was
/// not requested. Wire the result into CrawlOptions::trace; the file is
/// finished when the recorder is destroyed. `--trace-detail full` upgrades
/// from the crawl-level default; any detail other than crawl or full exits
/// 2.
struct BenchTrace {
  // Heap-held so the recorder's stream pointer survives moves of this
  // struct (declared before `recorder` so the stream outlives finish()).
  std::unique_ptr<std::ofstream> out;
  std::unique_ptr<obs::TraceRecorder> recorder;
  obs::TraceRecorder* get() const { return recorder.get(); }
};

inline BenchTrace trace_recorder_from_args(const cli::Args& args) {
  BenchTrace trace;
  obs::TraceConfig config;
  const std::string detail = args.get("trace-detail", "crawl");
  if (detail != "crawl" && detail != "full") {
    std::fprintf(stderr,
                 "%s: --trace-detail must be crawl or full, got \"%s\"\n",
                 args.prog.c_str(), detail.c_str());
    std::exit(2);
  }
  config.detail = detail == "full" ? obs::Detail::kFull : obs::Detail::kCrawl;
  if (!args.has("trace")) return trace;
  const std::string path = args.get("trace");
  trace.out = std::make_unique<std::ofstream>(path);
  if (!*trace.out) {
    std::fprintf(stderr, "%s: cannot open trace file %s\n",
                 args.prog.c_str(), path.c_str());
    std::exit(2);
  }
  trace.recorder =
      std::make_unique<obs::TraceRecorder>(config, trace.out.get());
  return trace;
}

inline void print_header(const char* title, const corpus::Corpus& corpus,
                         int threads = 1) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("corpus: %d sites, seed 0x%llX, %zu catalog scripts"
              ", %d crawl thread%s\n",
              corpus.size(),
              static_cast<unsigned long long>(corpus.params().seed),
              corpus.catalog().size(), threads, threads == 1 ? "" : "s");
  std::printf("================================================================\n");
}

/// CG_ARCHIVE=<file.cgar>: replay a packed archive (cgsim pack) through the
/// analyzer instead of crawling live. Only the plain measurement crawl —
/// faults on, no extension — is archived, so that is the only configuration
/// the archive can substitute for; provenance in the footer (corpus seed,
/// site count, fault-plan seed) is checked against what the live crawl
/// would have used, and any mismatch is a hard error rather than hours of
/// silently-wrong numbers. Returns true when the archive was consumed.
inline bool analyzer_from_archive_env(const corpus::Corpus& corpus,
                                      analysis::Analyzer& analyzer) {
  const char* path = std::getenv("CG_ARCHIVE");
  if (path == nullptr) return false;
  store::Error error;
  const auto reader = store::Reader::open(path, &error);
  if (!reader) {
    std::fprintf(stderr, "error: CG_ARCHIVE %s rejected (%s)\n", path,
                 error.to_string().c_str());
    std::exit(2);
  }
  if (reader->kind() != store::ArchiveKind::kFull) {
    std::fprintf(stderr,
                 "error: CG_ARCHIVE %s is a %s archive — benches replay "
                 "full archives only (materialize the wave through cgsim "
                 "query --archive <chain> instead)\n",
                 path,
                 std::string(store::archive_kind_name(reader->kind()))
                     .c_str());
    std::exit(2);
  }
  // The recorded policy is hard provenance, same as the seeds: the archive
  // substitutes for the *plain* measurement crawl, so an archive packed
  // under any partitioning policy is the wrong dataset.
  if (reader->policy() != store::ArchivePolicy::kNone) {
    std::fprintf(stderr,
                 "error: CG_ARCHIVE %s was packed under --policy %s; the "
                 "measurement crawl it substitutes for runs with no "
                 "partitioning policy — repack without --policy\n",
                 path,
                 std::string(store::archive_policy_name(reader->policy()))
                     .c_str());
    std::exit(2);
  }
  if (reader->corpus_seed() != corpus.params().seed ||
      reader->site_count() != corpus.size()) {
    std::fprintf(stderr,
                 "error: CG_ARCHIVE %s was packed from a different corpus "
                 "(%d sites, seed 0x%llX; this run wants %d sites, "
                 "seed 0x%llX)\n",
                 path, reader->site_count(),
                 static_cast<unsigned long long>(reader->corpus_seed()),
                 corpus.size(),
                 static_cast<unsigned long long>(corpus.params().seed));
    std::exit(2);
  }
  crawler::Crawler crawler(corpus);
  const fault::FaultPlan plan = crawler.plan_for(crawler::CrawlOptions{});
  const std::uint64_t expected_fault_seed =
      plan.enabled() ? plan.params().seed : 0;
  if (reader->fault_seed() != expected_fault_seed) {
    std::fprintf(stderr,
                 "error: CG_ARCHIVE %s was packed under a different fault "
                 "plan (seed 0x%llX, expected 0x%llX) — repack without "
                 "--no-faults\n",
                 path, static_cast<unsigned long long>(reader->fault_seed()),
                 static_cast<unsigned long long>(expected_fault_seed));
    std::exit(2);
  }
  if (!analysis::analyze_archive(*reader, analyzer, &error)) {
    std::fprintf(stderr, "error: CG_ARCHIVE %s is corrupt (%s)\n", path,
                 error.to_string().c_str());
    std::exit(2);
  }
  return true;
}

inline void print_row(const char* label, double paper, double measured,
                      const char* unit = "%") {
  std::printf("  %-46s paper %7.1f%-2s  measured %7.1f%-2s\n", label, paper,
              unit, measured, unit);
}

}  // namespace cg::bench
