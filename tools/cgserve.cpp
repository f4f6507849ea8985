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
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "report/json.h"
#include "serve/server.h"

namespace {

using cg::serve::Query;
using cg::serve::Server;
using cg::serve::ServerConfig;

struct Options {
  std::vector<std::string> archives;
  std::vector<std::string> queries;  // one-shot; empty -> stdin REPL
  std::string metrics_path;          // --metrics FILE: serve.* counters JSON
  bool timing = false;               // --timing: per-query latency to stderr
  std::size_t cache_entries = 4096;  // --cache-entries N (0 disables)
};

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

/// A command-line error: names the flag, then the usage text; exit 2.
[[noreturn]] void flag_error(const std::string& what, std::string_view flag) {
  std::fprintf(stderr, "cgserve: %s %.*s\n", what.c_str(),
               static_cast<int>(flag.size()), flag.data());
  std::exit(usage());
}

/// A non-negative decimal entry count; anything else (a sign, a suffix,
/// an overflow) is a flag error.
std::size_t parse_count(const char* text, std::string_view flag) {
  const bool digits =
      *text != '\0' && std::strspn(text, "0123456789") == std::strlen(text);
  errno = 0;
  const unsigned long long n = digits ? std::strtoull(text, nullptr, 10) : 0;
  if (!digits || errno == ERANGE) {
    flag_error("bad value \"" + std::string(text) + "\" for", flag);
  }
  return static_cast<std::size_t>(n);
}

/// Strict: an unknown flag, or a value flag with no value after it (the end
/// of argv or another --flag), exits 2 naming the flag.
bool parse_args(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--timing") {
      out->timing = true;
      continue;
    }
    if (arg != "--archive" && arg != "--query" && arg != "--metrics" &&
        arg != "--cache-entries") {
      flag_error("unknown flag", arg);
    }
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      flag_error("missing value for", arg);
    }
    const char* value = argv[++i];
    if (arg == "--archive") {
      out->archives.emplace_back(value);
    } else if (arg == "--query") {
      out->queries.emplace_back(value);
    } else if (arg == "--metrics") {
      out->metrics_path = value;
    } else {
      out->cache_entries = parse_count(value, arg);
    }
  }
  return !out->archives.empty();
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
  Options options;
  if (!parse_args(argc, argv, &options)) return usage();

  ServerConfig config;
  config.cache.max_entries = options.cache_entries;

  cg::store::Error error;
  const auto server = Server::open(options.archives, config, &error);
  if (server == nullptr) {
    std::fprintf(stderr, "cgserve: cannot serve: %s\n",
                 error.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "cgserve: serving %d sites from %d archive(s)\n",
               server->site_count(), server->archive_count());

  if (!options.queries.empty()) {
    for (const std::string& line : options.queries) {
      answer(*server, line, options.timing);
    }
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      // CRLF clients: the \r before the \n is line framing, not content.
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line == "quit" || line == "exit") break;
      if (line.empty()) continue;
      answer(*server, line, options.timing);
    }
  }

  if (!options.metrics_path.empty()) {
    cg::obs::MetricsRegistry registry;
    server->export_metrics(registry);
    std::ofstream out(options.metrics_path);
    out << registry.to_json().dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "cgserve: cannot write %s\n",
                   options.metrics_path.c_str());
      return 1;
    }
  }
  return 0;
}
