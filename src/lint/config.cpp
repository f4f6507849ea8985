#include "lint/config.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

namespace cg::lint {
namespace {

std::vector<std::string> split_words(std::string_view line) {
  std::vector<std::string> words;
  std::string current;
  for (const char c : line) {
    if (c == ' ' || c == '\t') {
      if (!current.empty()) words.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) words.push_back(std::move(current));
  return words;
}

/// "src/obs/trace.cpp" → "obs"; "bench/bench_paper.cpp" → "bench".
std::string default_module(std::string_view path) {
  const std::size_t first = path.find('/');
  if (first == std::string_view::npos) return std::string(path);
  std::string_view head = path.substr(0, first);
  if (head != "src") return std::string(head);
  const std::string_view rest = path.substr(first + 1);
  const std::size_t second = rest.find('/');
  return std::string(second == std::string_view::npos ? rest
                                                      : rest.substr(0, second));
}

}  // namespace

std::optional<NameRegistry> NameRegistry::parse(std::string_view text,
                                                std::string* error) {
  NameRegistry registry;
  std::istringstream in{std::string(text)};
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const auto words = split_words(raw);
    if (words.empty()) continue;
    if (words.size() != 1) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": expected one name per line";
      }
      return std::nullopt;
    }
    const std::string& entry = words[0];
    if (entry == "*" || entry.find('*') < entry.size() - 1) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": '*' is only valid as a trailing wildcard";
      }
      return std::nullopt;
    }
    if (entry.back() == '*') {
      registry.wildcard_stems_.push_back(entry.substr(0, entry.size() - 1));
    } else {
      registry.exact_.insert(entry);
    }
    registry.entries_.push_back(entry);
  }
  std::sort(registry.entries_.begin(), registry.entries_.end());
  registry.entries_.erase(
      std::unique(registry.entries_.begin(), registry.entries_.end()),
      registry.entries_.end());
  std::sort(registry.wildcard_stems_.begin(), registry.wildcard_stems_.end());
  return registry;
}

std::optional<NameRegistry> NameRegistry::load(const std::string& file,
                                               std::string* error) {
  std::ifstream in(file);
  if (!in) {
    if (error != nullptr) *error = "cannot open registry file: " + file;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), error);
}

bool NameRegistry::matches(std::string_view name,
                           std::string* matched_entry) const {
  const auto it = exact_.find(std::string(name));
  if (it != exact_.end()) {
    if (matched_entry != nullptr) *matched_entry = *it;
    return true;
  }
  for (const std::string& stem : wildcard_stems_) {
    if (name.substr(0, stem.size()) == stem) {
      if (matched_entry != nullptr) *matched_entry = stem + "*";
      return true;
    }
  }
  return false;
}

bool NameRegistry::matches_prefix(std::string_view prefix,
                                  std::string* matched_entry) const {
  for (const std::string& stem : wildcard_stems_) {
    if (prefix.substr(0, stem.size()) == stem) {
      if (matched_entry != nullptr) *matched_entry = stem + "*";
      return true;
    }
  }
  return false;
}

std::optional<Config> Config::parse(std::string_view text,
                                    std::string* error) {
  Config config;
  std::istringstream in{std::string(text)};
  std::string raw;
  int line_no = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + message;
    }
    return std::nullopt;
  };
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const auto words = split_words(raw);
    if (words.empty()) continue;
    const std::string& keyword = words[0];
    if (keyword == "path") {
      if (words.size() != 3) return fail("path expects: path <prefix> <module>");
      config.path_overrides_.emplace_back(words[1], words[2]);
    } else if (keyword == "deps") {
      if (words.size() < 2 || words[1].back() != ':') {
        return fail("deps expects: deps <module>: [dep ...]");
      }
      const std::string module = words[1].substr(0, words[1].size() - 1);
      if (module.empty()) return fail("deps: empty module name");
      auto [it, inserted] = config.deps_.try_emplace(module);
      if (!inserted) return fail("duplicate deps for module " + module);
      it->second.insert(words.begin() + 2, words.end());
    } else if (keyword == "open") {
      if (words.size() < 2) return fail("open expects at least one module");
      config.open_.insert(words.begin() + 1, words.end());
    } else if (keyword == "apps") {
      if (words.size() < 2) return fail("apps expects at least one module");
      config.apps_.insert(words.begin() + 1, words.end());
    } else if (keyword == "mustcheck") {
      if (words.size() < 2) return fail("mustcheck expects at least one type");
      config.mustcheck_types_.insert(words.begin() + 1, words.end());
    } else if (keyword == "metricwrap") {
      if (words.size() < 2) {
        return fail("metricwrap expects at least one function name");
      }
      config.metric_wrappers_.insert(words.begin() + 1, words.end());
    } else if (keyword == "allow") {
      if (words.size() < 4 || words[2] != "under") {
        return fail("allow expects: allow <RULE> under <prefix> [...]");
      }
      auto& prefixes = config.allow_prefixes_[words[1]];
      prefixes.insert(prefixes.end(), words.begin() + 3, words.end());
    } else if (keyword == "restrict") {
      if (words.size() < 3) {
        return fail("restrict expects: restrict <RULE> <module> [...]");
      }
      config.restrict_[words[1]].insert(words.begin() + 2, words.end());
    } else {
      return fail("unknown keyword '" + keyword + "'");
    }
  }
  // Longest prefix wins when overrides nest.
  std::stable_sort(config.path_overrides_.begin(),
                   config.path_overrides_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.size() > b.first.size();
                   });
  // Every dep must itself be declared, and the declared graph must be a DAG;
  // a cycle here is exactly the regression L1 exists to prevent.
  for (const auto& [module, deps] : config.deps_) {
    for (const auto& dep : deps) {
      if (config.deps_.count(dep) == 0 && config.open_.count(dep) == 0) {
        line_no = 0;
        return fail("module '" + module + "' depends on undeclared '" + dep +
                    "'");
      }
    }
  }
  // `apps` re-labels layering findings; the module still needs its deps (or
  // an `open` escape hatch) declared, otherwise nothing is being relabeled.
  for (const auto& module : config.apps_) {
    if (config.deps_.count(module) == 0 && config.open_.count(module) == 0) {
      line_no = 0;
      return fail("apps module '" + module +
                  "' has no deps line — declare its allowed includes");
    }
  }
  std::map<std::string, int> state;  // 0 unvisited, 1 in-stack, 2 done
  std::function<std::optional<std::string>(const std::string&)> visit =
      [&](const std::string& module) -> std::optional<std::string> {
    state[module] = 1;
    const auto it = config.deps_.find(module);
    if (it != config.deps_.end()) {
      for (const auto& dep : it->second) {
        const int s = state[dep];
        if (s == 1) return module + " -> " + dep;
        if (s == 0) {
          if (auto cycle = visit(dep)) return module + " -> " + *cycle;
        }
      }
    }
    state[module] = 2;
    return std::nullopt;
  };
  for (const auto& [module, deps] : config.deps_) {
    if (state[module] == 0) {
      if (auto cycle = visit(module)) {
        line_no = 0;
        return fail("layering graph has a cycle: " + *cycle);
      }
    }
  }
  return config;
}

std::optional<Config> Config::load(const std::string& file,
                                   std::string* error) {
  std::ifstream in(file);
  if (!in) {
    if (error != nullptr) *error = "cannot open config file: " + file;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), error);
}

std::string Config::module_of(std::string_view path) const {
  for (const auto& [prefix, module] : path_overrides_) {
    if (path.substr(0, prefix.size()) == prefix) return module;
  }
  return default_module(path);
}

bool Config::edge_allowed(const std::string& from,
                          const std::string& to) const {
  if (from == to) return true;
  if (open_.count(from) != 0) return true;
  const auto it = deps_.find(from);
  return it != deps_.end() && it->second.count(to) != 0;
}

bool Config::module_declared(const std::string& module) const {
  return deps_.count(module) != 0 || open_.count(module) != 0;
}

bool Config::rule_allowlisted(std::string_view rule,
                              std::string_view path) const {
  const auto it = allow_prefixes_.find(std::string(rule));
  if (it == allow_prefixes_.end()) return false;
  for (const auto& prefix : it->second) {
    if (path.substr(0, prefix.size()) == prefix) return true;
  }
  return false;
}

bool Config::rule_applies(std::string_view rule,
                          const std::string& module) const {
  const auto it = restrict_.find(std::string(rule));
  if (it == restrict_.end()) return true;
  return it->second.count(module) != 0;
}

}  // namespace cg::lint
