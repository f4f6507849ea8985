// cgserve — the CGAR serving daemon/CLI.
//
// Opens one or more archives, pays the load-time fold once, then answers
// queries in the line protocol of serve/query.h:
//
//   cgserve --archive crawl.cgar --query "site 17" --query table1
//   cgserve --archive a.cgar --archive b.cgar            # REPL on stdin
//
// One-shot --query flags run in order and exit; with none, cgserve reads
// queries from stdin until EOF ("quit" also exits) — that loop is the
// daemon mode, designed to sit behind a pipe or socket relay. Answers are
// single-line JSON on stdout, byte-deterministic for a given archive set
// and query; diagnostics (timing, startup) go to stderr so stdout stays
// clean for consumers.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "obs/metrics.h"
#include "report/json.h"
#include "serve/server.h"

namespace {

using cg::serve::Query;
using cg::serve::Server;
using cg::serve::ServerConfig;

int usage() {
  std::fprintf(stderr,
               "usage: cgserve --archive FILE [--archive FILE...]\n"
               "               [--query LINE...] [--timing] [--metrics FILE]\n"
               "               [--cache-entries N]\n"
               "--cache-entries N: how many rendered site answers to cache "
               "(default 4096, 0 disables)\n"
               "queries: site <rank> | table1 | totals | top-exfiltrated [n]\n"
               "         | top-domains [n] | entity <name> | stats\n"
               "         | waves [domain]   (base+delta archive chains)\n");
  return 2;
}

/// Answers one protocol line. Parse failures are answered (as JSON errors),
/// not dropped — a daemon must respond to every request.
void answer(const Server& server, const std::string& line, bool timing) {
  const auto query = cg::serve::parse_query(line);
  if (!query) {
    std::printf("{\"error\":\"cannot parse query\",\"line\":%s}\n",
                cg::report::Json(line).dump().c_str());
    return;
  }
  const auto start =
      std::chrono::steady_clock::now();  // cglint: allow(D1) — --timing latency diagnostics on stderr; stdout bytes never depend on it
  const std::string text = server.handle_text(*query);
  const auto elapsed =
      std::chrono::steady_clock::now() - start;  // cglint: allow(D1) — --timing latency diagnostics on stderr; stdout bytes never depend on it
  std::printf("%s\n", text.c_str());
  if (timing) {
    const double micros =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            elapsed)
            .count();
    std::fprintf(stderr, "cgserve: %s: %.1f us\n",
                 cg::serve::to_text(*query).c_str(), micros);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const cg::cli::Args args = cg::cli::parse_or_exit(
      "cgserve", argc, argv, 1,
      {{{"archive"}, {"query"}, {"metrics"}, {"timing", true},
        {"cache-entries"}}});
  const std::vector<std::string> archives = args.all("archive");
  if (archives.empty()) return usage();
  const std::vector<std::string> queries = args.all("query");
  const bool timing = args.has("timing");
  const std::string metrics_path = args.get("metrics");

  ServerConfig config;
  config.cache.max_entries =
      args.get_uint("cache-entries", 4096, 0, SIZE_MAX);

  cg::store::Error error;
  const auto server = Server::open(archives, config, &error);
  if (server == nullptr) {
    std::fprintf(stderr, "cgserve: cannot serve: %s\n",
                 error.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "cgserve: serving %d sites from %d archive(s)\n",
               server->site_count(), server->archive_count());

  if (!queries.empty()) {
    for (const std::string& line : queries) {
      answer(*server, line, timing);
    }
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      // CRLF clients: the \r before the \n is line framing, not content.
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line == "quit" || line == "exit") break;
      if (line.empty()) continue;
      answer(*server, line, timing);
    }
  }

  if (!metrics_path.empty()) {
    cg::obs::MetricsRegistry registry;
    server->export_metrics(registry);
    std::ofstream out(metrics_path);
    out << registry.to_json().dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "cgserve: cannot write %s\n",
                   metrics_path.c_str());
      return 1;
    }
  }
  return 0;
}
