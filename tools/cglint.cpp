// cglint — determinism & layering static analysis for the CookieGuard tree.
//
// Usage:
//   cglint [--config lint/layering.txt] [--enums lint/enums.txt]
//          [--metrics lint/metrics.txt] [--census] [--quiet]
//          [--sarif FILE] [--baseline FILE] [--write-baseline FILE]
//          [--max-ms N] PATH...
//
// The enum/metric registries default to lint/enums.txt and lint/metrics.txt
// when those files exist; rules E1/M1 are inert without them. --baseline
// excuses findings recorded in a checked-in baseline (CI gates on *new*
// findings); --write-baseline snapshots the current findings and exits 0.
// --sarif writes a SARIF 2.1.0 log ("-" for stdout). --max-ms fails the run
// (exit 3) when the whole-tree scan takes longer than N ms (an integer >= 1).
//
// Exit codes: 0 clean, 1 violations (or reasonless/malformed suppressions),
// 2 usage or configuration error, 3 over the --max-ms budget. Run from the
// repository root so module mapping sees repo-relative paths:
//
//   ./build/tools/cglint --config lint/layering.txt --census src bench

#include <chrono>
#include <climits>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "lint/config.h"
#include "lint/linter.h"
#include "lint/sarif.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--config FILE] [--enums FILE] [--metrics FILE]"
               " [--census] [--quiet] [--sarif FILE] [--baseline FILE]"
               " [--write-baseline FILE] [--max-ms N] PATH...\n";
  return 2;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  const cg::cli::Args args = cg::cli::parse_or_exit(
      "cglint", argc, argv, 1,
      {{{"config"}, {"enums"}, {"metrics"}, {"census", true}, {"quiet", true},
        {"sarif"}, {"baseline"}, {"write-baseline"}, {"max-ms"},
        {"help", true}},
       0, INT_MAX});
  if (args.has("help")) {
    usage(argv[0]);
    return 0;
  }
  const std::vector<std::string>& roots = args.positionals;
  if (roots.empty()) return usage(argv[0]);
  const std::string config_file = args.get("config", "lint/layering.txt");
  std::string enums_file = args.get("enums");
  std::string metrics_file = args.get("metrics");
  const std::string sarif_file = args.get("sarif");
  const std::string baseline_file = args.get("baseline");
  const std::string write_baseline_file = args.get("write-baseline");
  const int max_ms = args.get_int("max-ms", 0, 1, INT_MAX);
  const bool census = args.has("census");
  const bool quiet = args.has("quiet");

  std::string error;
  auto config = cg::lint::Config::load(config_file, &error);
  if (!config) {
    std::cerr << "cglint: " << config_file << ": " << error << '\n';
    return 2;
  }

  // Registries: explicit flags must load; the defaults attach only when the
  // checked-in files exist (so cglint still works on partial trees).
  const bool enums_default = enums_file.empty();
  if (enums_default) enums_file = "lint/enums.txt";
  if (!enums_default || std::filesystem::exists(enums_file)) {
    auto registry = cg::lint::NameRegistry::load(enums_file, &error);
    if (!registry) {
      std::cerr << "cglint: " << enums_file << ": " << error << '\n';
      return 2;
    }
    config->set_enum_registry(std::move(*registry));
  }
  const bool metrics_default = metrics_file.empty();
  if (metrics_default) metrics_file = "lint/metrics.txt";
  if (!metrics_default || std::filesystem::exists(metrics_file)) {
    auto registry = cg::lint::NameRegistry::load(metrics_file, &error);
    if (!registry) {
      std::cerr << "cglint: " << metrics_file << ": " << error << '\n';
      return 2;
    }
    config->set_metric_registry(std::move(*registry));
  }

  // Tool-side timing is diagnostic output about the linter itself, never
  // crawl-visible bytes; the virtual clock does not exist at lint time.
  const auto start =
      std::chrono::steady_clock::now();  // cglint: allow(D1) — linter wall-clock timing is diagnostic-only output
  cg::lint::LintReport report = cg::lint::lint_paths(*config, roots);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)  // cglint: allow(D1) — linter wall-clock timing is diagnostic-only output
          .count();

  if (!write_baseline_file.empty()) {
    if (!write_text_file(write_baseline_file,
                         cg::lint::write_baseline_text(report))) {
      std::cerr << "cglint: cannot write baseline: " << write_baseline_file
                << '\n';
      return 2;
    }
    if (!quiet) {
      std::cout << "cglint: wrote " << report.violations.size()
                << " finding(s) to " << write_baseline_file << '\n';
    }
    return 0;
  }

  if (!baseline_file.empty()) {
    const auto baseline = cg::lint::Baseline::load(baseline_file, &error);
    if (!baseline) {
      std::cerr << "cglint: " << baseline_file << ": " << error << '\n';
      return 2;
    }
    cg::lint::apply_baseline(&report, *baseline);
  }

  if (!sarif_file.empty()) {
    const std::string sarif = cg::lint::to_sarif(report);
    if (sarif_file == "-") {
      std::cout << sarif;
    } else if (!write_text_file(sarif_file, sarif)) {
      std::cerr << "cglint: cannot write SARIF log: " << sarif_file << '\n';
      return 2;
    }
  }

  if (!quiet) {
    std::cout << cg::lint::format_report(report, census);
    std::cout << "cglint: scanned in " << elapsed_ms << " ms\n";
  }
  if (!report.clean()) return 1;
  if (max_ms > 0 && elapsed_ms > max_ms) {
    std::cerr << "cglint: scan took " << elapsed_ms
              << " ms, over the --max-ms " << max_ms << " budget\n";
    return 3;
  }
  return 0;
}
