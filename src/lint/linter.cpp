#include "lint/linter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/index.h"

namespace cg::lint {
namespace {

bool lintable_file(const std::filesystem::path& path) {
  const auto ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool skip_directory(const std::filesystem::path& path) {
  const auto name = path.filename().string();
  return name.empty() || name.front() == '.' ||
         name.rfind("build", 0) == 0;
}

/// Match one file's raw violations against its suppressions and fold the
/// outcome into the report.
void apply_suppressions(const std::string& path,
                        std::vector<Suppression>& suppressions,
                        std::vector<Violation>& raw, LintReport& report) {
  for (Violation& violation : raw) {
    Suppression* match = nullptr;
    for (Suppression& suppression : suppressions) {
      if (suppression.target_line != violation.line) continue;
      if (std::find(suppression.rules.begin(), suppression.rules.end(),
                    violation.rule) == suppression.rules.end()) {
        continue;
      }
      match = &suppression;
      break;
    }
    if (match != nullptr) {
      match->used = true;
      ++report.suppression_census[violation.rule];
      report.suppressed.push_back({std::move(violation), match->reason});
    } else {
      report.violations.push_back(std::move(violation));
    }
  }
  for (const Suppression& suppression : suppressions) {
    if (suppression.used) continue;
    std::string rules;
    for (const auto& rule : suppression.rules) {
      if (!rules.empty()) rules += ',';
      rules += rule;
    }
    report.unused_suppressions.push_back(
        {path, suppression.comment_line, "S3",
         "suppression allow(" + rules + ") matched no violation"});
  }
}

}  // namespace

LintReport lint_sources(const Config& config,
                        std::vector<SourceFile> sources) {
  std::sort(sources.begin(), sources.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });

  LintReport report;

  // Pass 1: lex everything and build the cross-file symbol index. Token
  // string_views point into the SourceFile buffers, which outlive pass 2.
  SymbolIndex index;
  std::vector<std::vector<Token>> streams;
  streams.reserve(sources.size());
  for (const SourceFile& file : sources) {
    streams.push_back(lex(file.source));
    index_file(config, file.path, streams.back(), &index);
    ++report.files_scanned;
    report.bytes_scanned += file.source.size();
  }

  // Pass 2: token rules + semantic rules per file, then suppressions.
  std::set<std::string> used_metric_entries;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string& path = sources[i].path;
    const std::vector<Token>& tokens = streams[i];
    auto suppressions = parse_suppressions(tokens, path, &report.violations);
    std::vector<Violation> raw = run_rules(config, path, tokens);
    std::vector<Violation> semantic =
        run_semantic_rules(config, index, path, tokens, &used_metric_entries);
    raw.insert(raw.end(), std::make_move_iterator(semantic.begin()),
               std::make_move_iterator(semantic.end()));
    std::stable_sort(raw.begin(), raw.end(),
                     [](const Violation& a, const Violation& b) {
                       if (a.line != b.line) return a.line < b.line;
                       return a.rule < b.rule;
                     });
    apply_suppressions(path, suppressions, raw, report);
  }

  if (config.metric_registry() != nullptr) {
    for (const std::string& entry : config.metric_registry()->entries()) {
      if (used_metric_entries.count(entry) == 0) {
        report.unused_metric_entries.push_back(entry);
      }
    }
  }

  std::stable_sort(report.violations.begin(), report.violations.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return report;
}

LintReport lint_source(const Config& config, const std::string& path,
                       std::string_view source) {
  std::vector<SourceFile> sources;
  sources.push_back({path, std::string(source)});
  return lint_sources(config, std::move(sources));
}

LintReport lint_paths(const Config& config,
                      const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::vector<Violation> io_errors;
  for (const std::string& root : roots) {
    const fs::path root_path(root);
    std::error_code ec;
    if (fs::is_regular_file(root_path, ec)) {
      files.push_back(root_path.generic_string());
      continue;
    }
    fs::recursive_directory_iterator it(
        root_path, fs::directory_options::skip_permission_denied, ec);
    if (ec) {
      // A mistyped root would otherwise lint nothing and pass.
      io_errors.push_back({root_path.generic_string(), 0, "IO",
                           "not a file or readable directory"});
      continue;
    }
    for (const auto& entry : it) {
      if (entry.is_directory(ec)) {
        if (skip_directory(entry.path())) it.disable_recursion_pending();
        continue;
      }
      if (entry.is_regular_file(ec) && lintable_file(entry.path())) {
        files.push_back(entry.path().generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      io_errors.push_back({file, 0, "IO", "cannot read file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    // Normalize "./src/x" → "src/x" so module mapping is stable however the
    // root was spelled.
    std::string rel = file;
    while (rel.rfind("./", 0) == 0) rel.erase(0, 2);
    sources.push_back({std::move(rel), buffer.str()});
  }

  LintReport report = lint_sources(config, std::move(sources));
  if (!io_errors.empty()) {
    report.violations.insert(report.violations.end(),
                             std::make_move_iterator(io_errors.begin()),
                             std::make_move_iterator(io_errors.end()));
    std::stable_sort(report.violations.begin(), report.violations.end(),
                     [](const Violation& a, const Violation& b) {
                       if (a.file != b.file) return a.file < b.file;
                       if (a.line != b.line) return a.line < b.line;
                       return a.rule < b.rule;
                     });
  }
  return report;
}

// ---- baseline mode -------------------------------------------------------

Baseline Baseline::parse(std::string_view text) {
  Baseline baseline;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
      line.pop_back();
    }
    if (line.empty() || line.front() == '#') continue;
    baseline.entries.insert(line);
  }
  return baseline;
}

std::optional<Baseline> Baseline::load(const std::string& file,
                                       std::string* error) {
  std::ifstream in(file);
  if (!in) {
    if (error != nullptr) *error = "cannot open baseline file: " + file;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::string baseline_key(const Violation& violation) {
  std::string key = violation.file;
  key += '\t';
  key += violation.rule;
  key += '\t';
  key += violation.message;
  return key;
}

std::string write_baseline_text(const LintReport& report) {
  std::vector<std::string> keys;
  keys.reserve(report.violations.size());
  for (const Violation& violation : report.violations) {
    keys.push_back(baseline_key(violation));
  }
  std::sort(keys.begin(), keys.end());
  std::string out =
      "# cglint baseline — known findings excused while a cleanup is in\n"
      "# flight. Regenerate with: cglint --write-baseline <this file> ...\n";
  for (const std::string& key : keys) {
    out += key;
    out += '\n';
  }
  return out;
}

int apply_baseline(LintReport* report, const Baseline& baseline) {
  std::multiset<std::string> remaining = baseline.entries;
  std::vector<Violation> kept;
  kept.reserve(report->violations.size());
  int removed = 0;
  for (Violation& violation : report->violations) {
    const auto it = remaining.find(baseline_key(violation));
    if (it != remaining.end()) {
      remaining.erase(it);
      ++removed;
    } else {
      kept.push_back(std::move(violation));
    }
  }
  report->violations = std::move(kept);
  report->baselined += removed;
  return removed;
}

std::string format_report(const LintReport& report, bool census) {
  std::ostringstream out;
  for (const Violation& violation : report.violations) {
    out << violation.file << ':' << violation.line << ": [" << violation.rule
        << "] " << violation.message << '\n';
  }
  if (census) {
    out << "suppression census:";
    if (report.suppression_census.empty()) {
      out << " none\n";
    } else {
      out << '\n';
      for (const auto& [rule, count] : report.suppression_census) {
        out << "  " << rule << ": " << count << '\n';
      }
      for (const auto& entry : report.suppressed) {
        out << "  " << entry.violation.file << ':' << entry.violation.line
            << " allow(" << entry.violation.rule << ") — " << entry.reason
            << '\n';
      }
    }
    for (const Violation& unused : report.unused_suppressions) {
      out << "note: " << unused.file << ':' << unused.line << ": "
          << unused.message << '\n';
    }
    for (const std::string& entry : report.unused_metric_entries) {
      out << "note: lint/metrics.txt: unused metric entry '" << entry
          << "'\n";
    }
  }
  out << "cglint: " << report.files_scanned << " files, "
      << report.bytes_scanned << " bytes, " << report.violations.size()
      << " violation(s), " << report.suppressed.size() << " suppressed";
  if (report.baselined > 0) out << ", " << report.baselined << " baselined";
  out << '\n';
  return out.str();
}

}  // namespace cg::lint
