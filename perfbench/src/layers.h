// The per-layer view: one site or one query at a time on one thread, each
// call into a src/ module wrapped in a span (see harness.h Tracer).
//
// Every workload's traced run goes through the same probes over its own
// inputs, so each per-layer metric is reported on every workload; the
// benchmark's README says which workload each one is meant to move on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "harness.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace cgbench {

/// Corpus generation wrapped in a `corpus.generate` span; returns seconds.
std::unique_ptr<cg::corpus::Corpus> generate_corpus(Tracer& tracer,
                                                    int sites,
                                                    std::uint64_t seed,
                                                    double* seconds);

/// One client, one query at a time, through a freshly opened server.
struct QueryPass {
  std::unique_ptr<cg::serve::Server> server;
  std::vector<std::uint64_t> hashes;  // answer hash per query index
  std::vector<bool> errors;           // error answer per query index
  long long error_count = 0;
  double open_s = 0;
};
/// Null server (and `open_error`) when the image does not open.
QueryPass run_query_pass(const std::string& image,
                         const cg::serve::ServerConfig& config,
                         const std::vector<cg::serve::Query>& queries,
                         Tracer& tracer, std::string* open_error);

/// The deterministic registry of the workload's reference crawl.
struct CrawlCounters {
  cg::obs::MetricsRegistry deterministic;
  int deterministic_sites = 0;
};

/// Runs the traced pass — the site probe over `corpus`, the archive probe
/// over `archive`, and one client sending `queries` to a server opened on
/// `served` — with spans off and on, in alternating pairs. Reports
/// per-layer metrics and the tracing overhead, writes the spans, and
/// returns the last traced query pass.
QueryPass traced_pass(const Options& options, Tracer& tracer,
                      const cg::corpus::Corpus& corpus, int sample,
                      const std::string& archive, const std::string& served,
                      const cg::serve::ServerConfig& config,
                      const std::vector<cg::serve::Query>& queries,
                      const CrawlCounters& counters, Result& result);

}  // namespace cgbench
