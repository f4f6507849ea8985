// Serving-tier throughput, latency, and determinism: the cgserve engine
// under a seeded zipfian workload.
//
// Pipeline: crawl CG_SITES sites (default 20,000), pack them into an
// in-memory CGAR image, then
//
//   batch:  time the full-walk analyze_archive pass — what one question
//           costs in batch, the baseline the serving tier exists to beat — and
//           check the server's load-time aggregate reproduces its summary
//           byte-for-byte (both are the same fold+merge algebra).
//   serve:  replay CG_SERVE_QUERIES mixed queries (90% per-site zipfian,
//           10% aggregates) through serve::Server, once on one thread and
//           once on CG_THREADS threads. Answers are hashed per query index;
//           the two runs must produce identical hash vectors — the
//           N-thread == 1-thread byte-identity the cache must not break.
//
// Gates (printed PASS/FAIL, non-zero exit on FAIL):
//   throughput >= CG_SERVE_MIN_QPS   (default 1000 queries/sec)
//   per-site p99 <= CG_SERVE_MAX_P99_MS (default 10 ms)
//   batch == serve aggregate, and 1-thread == N-thread answers.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "report/report.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "store/writer.h"

namespace {

using namespace cg;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t fnv64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct RunResult {
  std::vector<std::uint64_t> answer_hashes;  // indexed by query id
  std::vector<double> site_latencies_s;      // kSite queries only
  double wall_s = 0;
};

/// Replays `queries` with `threads` workers pulling strided indices.
/// Answer hashes land at the query's own index, so the vector is
/// thread-count-independent iff the server is.
RunResult run_workload(const serve::Server& server,
                       const std::vector<serve::Query>& queries,
                       int threads) {
  RunResult result;
  result.answer_hashes.assign(queries.size(), 0);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(threads));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < queries.size();
           i += static_cast<std::size_t>(threads)) {
        const bool is_site = queries[i].kind == serve::QueryKind::kSite;
        const auto q_start = std::chrono::steady_clock::now();
        const std::string answer = server.handle_text(queries[i]);
        if (is_site) {
          latencies[static_cast<std::size_t>(t)].push_back(
              seconds_since(q_start));
        }
        result.answer_hashes[i] = fnv64(answer);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  result.wall_s = seconds_since(start);
  for (auto& per_thread : latencies) {
    result.site_latencies_s.insert(result.site_latencies_s.end(),
                                   per_thread.begin(), per_thread.end());
  }
  return result;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto i = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(i, values.size() - 1)];
}

double env_double(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env || *end != '\0' || v < 0) {
      std::fprintf(stderr, "error: %s must be a non-negative number\n", name);
      std::exit(2);
    }
    return v;
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cg;
  corpus::Corpus corpus(bench::default_params());
  const int threads = bench::threads_from_args(argc, argv);
  bench::print_header("Serving tier — cgserve throughput / latency / identity",
                      corpus, threads);

  // Phase 0 (untimed): crawl and pack in memory, so every number below is
  // the serving stack, not the simulator or disk.
  crawler::Crawler crawler(corpus);
  crawler::CrawlOptions options;
  options.threads = threads;
  store::WriterOptions writer_options;
  writer_options.corpus_seed = corpus.params().seed;
  const fault::FaultPlan plan = crawler.plan_for(options);
  writer_options.fault_seed = plan.enabled() ? plan.params().seed : 0;
  std::ostringstream sink;
  store::Writer writer(&sink, writer_options);
  crawler.crawl(corpus.size(), options,
                [&](instrument::VisitLog&& log) { writer.add(log); });
  store::Error error;
  if (!writer.finish(&error)) {
    std::fprintf(stderr, "error: pack failed (%s)\n",
                 error.to_string().c_str());
    return 1;
  }
  const std::string archive = sink.str();

  // Phase 1: the batch baseline — a full validating walk per question.
  auto batch_reader = store::Reader::from_buffer(archive, &error);
  if (!batch_reader) {
    std::fprintf(stderr, "error: archive rejected (%s)\n",
                 error.to_string().c_str());
    return 1;
  }
  analysis::Analyzer batch(corpus.entities());
  const auto batch_start = std::chrono::steady_clock::now();
  if (!analysis::analyze_archive(*batch_reader, batch, &error)) {
    std::fprintf(stderr, "error: batch walk failed (%s)\n",
                 error.to_string().c_str());
    return 1;
  }
  const double batch_s = seconds_since(batch_start);

  // Phase 2: server load (same walk, paid once; every query after is
  // index + cache or precomputed-summary reads).
  auto serve_reader = store::Reader::from_buffer(archive, &error);
  if (!serve_reader) {
    std::fprintf(stderr, "error: archive rejected (%s)\n",
                 error.to_string().c_str());
    return 1;
  }
  std::vector<store::Reader> readers;
  readers.push_back(std::move(*serve_reader));
  const auto load_start = std::chrono::steady_clock::now();
  const auto server =
      serve::Server::from_readers(std::move(readers), {}, &error);
  if (server == nullptr) {
    std::fprintf(stderr, "error: server load failed (%s)\n",
                 error.to_string().c_str());
    return 1;
  }
  const double load_s = seconds_since(load_start);

  // Identity 1: the precomputed aggregate IS the batch summary. Render both
  // through the canonical report serializer and compare bytes.
  analysis::Analyzer from_serve(corpus.entities());
  from_serve.apply(analysis::SiteSummary(server->aggregate()));
  const bool batch_identical =
      report::summary_to_json(batch, 10).dump() ==
      report::summary_to_json(from_serve, 10).dump();

  // Phase 3: the workload. Same query stream for both runs (pure function
  // of the spec), so hash vectors are comparable index-by-index.
  serve::WorkloadSpec spec;
  spec.site_count = corpus.size();
  const auto query_count = static_cast<std::size_t>(bench::require_int(
      std::getenv("CG_SERVE_QUERIES") ? std::getenv("CG_SERVE_QUERIES")
                                      : "20000",
      "CG_SERVE_QUERIES", 1, INT_MAX));
  const std::vector<serve::Query> queries =
      serve::WorkloadGenerator(spec).generate(query_count);

  // Three replays of the same stream: a 1-thread reference (which also
  // warms the cache), a measured run at the box's parallelism, and an
  // oversubscribed identity run — more threads than cores forces harsher
  // interleavings, which is exactly what the byte-identity property must
  // survive. Latency is only read from the measured run; an oversubscribed
  // run's tail is scheduler noise, not serving cost.
  constexpr int kIdentityThreads = 8;
  const RunResult single = run_workload(*server, queries, 1);
  const RunResult measured = run_workload(*server, queries, threads);
  const RunResult identity =
      run_workload(*server, queries, kIdentityThreads);
  const bool threads_identical =
      single.answer_hashes == measured.answer_hashes &&
      single.answer_hashes == identity.answer_hashes;

  const double qps =
      measured.wall_s > 0
          ? static_cast<double>(queries.size()) / measured.wall_s
          : 0.0;
  const double p50_ms = percentile(measured.site_latencies_s, 0.50) * 1e3;
  const double p99_ms = percentile(measured.site_latencies_s, 0.99) * 1e3;
  const serve::BlockCache::Stats cache = server->cache().stats();

  const double min_qps = env_double("CG_SERVE_MIN_QPS", 1000.0);
  const double max_p99_ms = env_double("CG_SERVE_MAX_P99_MS", 10.0);
  const bool qps_ok = qps >= min_qps;
  const bool p99_ok = p99_ms <= max_p99_ms;

  std::printf("\nqueries: %zu (%zu per-site), %d serving thread%s\n",
              queries.size(), measured.site_latencies_s.size(), threads,
              threads == 1 ? "" : "s");
  std::printf("  %-30s %10.3f s   (walk + fold, per question)\n",
              "batch analyze_archive", batch_s);
  std::printf("  %-30s %10.3f s   (walk + fold, once at startup)\n",
              "server load", load_s);
  std::printf("  %-30s %10.1f queries/s  (bar: >= %.0f)  [%s]\n",
              "serving throughput", qps, min_qps, qps_ok ? "PASS" : "FAIL");
  std::printf("  %-30s %10.3f ms\n", "per-site latency p50", p50_ms);
  std::printf("  %-30s %10.3f ms  (bar: <= %.1f)  [%s]\n",
              "per-site latency p99", p99_ms, max_p99_ms,
              p99_ok ? "PASS" : "FAIL");
  std::printf("  %-30s %10.1f%%  (%lld hits / %lld misses, %lld evictions)\n",
              "cache hit rate",
              cache.hits + cache.misses > 0
                  ? 100.0 * static_cast<double>(cache.hits) /
                        static_cast<double>(cache.hits + cache.misses)
                  : 0.0,
              static_cast<long long>(cache.hits),
              static_cast<long long>(cache.misses),
              static_cast<long long>(cache.evictions));
  std::printf("  %-30s %10s\n", "serve aggregate == batch",
              batch_identical ? "PASS" : "FAIL");
  std::printf("  %-30s %10s  (1 == %d == %d thread answers)\n",
              "thread-count identity", threads_identical ? "PASS" : "FAIL",
              threads, kIdentityThreads);
  std::printf("\n");
  return batch_identical && threads_identical && qps_ok && p99_ok ? 0 : 1;
}
