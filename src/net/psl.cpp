#include "net/psl.h"

#include <algorithm>
#include <array>
#include <cstddef>

namespace cg::net {
namespace {

// Embedded public-suffix subset, sorted so a candidate suffix is found by
// binary search. A host has at most kMaxSuffixLabels candidates (its last
// one, two, ... labels), so a lookup costs a few comparisons, not a scan.
// Callers that ask for the same host over and over memoize the answer in a
// SiteCache (browser::Browser owns one per visit).
constexpr std::array<std::string_view, 58> kSuffixes = [] {
  std::array<std::string_view, 58> suffixes = {
      // Generic TLDs used throughout the corpus.
      "com", "org", "net", "io", "co", "ai", "de", "fr", "jp", "ru", "uk",
      "us", "eu", "info", "biz", "tv", "me", "app", "dev", "cloud", "media",
      "agency", "online", "shop", "store", "site", "xyz", "news", "blog",
      "edu", "gov", "mil", "int", "ac",
      // Multi-label public suffixes.
      "co.uk", "org.uk", "ac.uk", "gov.uk", "co.jp", "ne.jp", "or.jp",
      "com.au", "net.au", "org.au", "com.br", "com.cn", "com.tr", "co.in",
      "co.kr", "com.mx", "co.za",
      // Private-section suffixes (sites hosted on shared platforms).
      "github.io", "gitlab.io", "netlify.app", "herokuapp.com",
      "blogspot.com", "myshopify.com", "amazonaws.com",
  };
  std::sort(suffixes.begin(), suffixes.end());
  return suffixes;
}();

// Labels in the longest listed suffix: the most candidates a host has.
constexpr std::size_t kMaxSuffixLabels = [] {
  std::size_t most = 0;
  for (const auto suffix : kSuffixes) {
    most = std::max<std::size_t>(
        most, 1 + static_cast<std::size_t>(
                      std::count(suffix.begin(), suffix.end(), '.')));
  }
  return most;
}();

bool listed_suffix(std::string_view candidate) {
  return std::binary_search(kSuffixes.begin(), kSuffixes.end(), candidate);
}

bool is_ip_literal(std::string_view host) {
  return !host.empty() &&
         host.find_first_not_of("0123456789.") == std::string_view::npos &&
         std::count(host.begin(), host.end(), '.') == 3;
}

bool is_upper(char c) { return c >= 'A' && c <= 'Z'; }

/// `s` lower-cased: a view of `s` itself when it has no upper-case ASCII
/// letter (every host Url::parse produces), else of a copy in `storage`.
std::string_view lowered(std::string_view s, std::string& storage) {
  if (std::none_of(s.begin(), s.end(), is_upper)) return s;
  storage.assign(s);
  for (char& c : storage) {
    if (is_upper(c)) c = static_cast<char>(c - 'A' + 'a');
  }
  return storage;
}

// Returns the length (in bytes) of the public suffix of lower-case `host`:
// the longest listed suffix that equals the host or follows one of its
// dots, else the last label (PSL fallback rule "*").
std::size_t suffix_length(std::string_view host) {
  std::size_t best = 0;
  std::size_t end = host.size();  // candidates start after host[0, end)
  for (std::size_t labels = 1; labels <= kMaxSuffixLabels; ++labels) {
    const auto dot =
        end == 0 ? std::string_view::npos : host.rfind('.', end - 1);
    const std::size_t start = dot == std::string_view::npos ? 0 : dot + 1;
    if (listed_suffix(host.substr(start))) best = host.size() - start;
    if (dot == std::string_view::npos) break;
    end = dot;
  }
  if (best == 0) {
    const auto dot = host.rfind('.');
    best = (dot == std::string_view::npos) ? host.size() : host.size() - dot - 1;
  }
  return best;
}

/// The registrable domain of lower-case `host`, as a view into it.
std::string_view site_view(std::string_view host) {
  while (!host.empty() && host.back() == '.') host.remove_suffix(1);
  if (host.empty()) return {};
  if (is_ip_literal(host)) return host;

  const std::size_t suffix_len = suffix_length(host);
  if (suffix_len >= host.size()) return {};  // bare public suffix

  // Strip "<suffix>" plus the preceding dot, then take the last label of
  // what remains as the "+1".
  const std::string_view rest = host.substr(0, host.size() - suffix_len - 1);
  const auto dot = rest.rfind('.');
  const std::size_t start = (dot == std::string_view::npos) ? 0 : dot + 1;
  return host.substr(start);
}

}  // namespace

bool is_public_suffix(std::string_view host) {
  std::string storage;
  const std::string_view lower = lowered(host, storage);
  return !lower.empty() && suffix_length(lower) == lower.size();
}

std::string etld_plus_one(std::string_view host) {
  std::string storage;
  return std::string(site_view(lowered(host, storage)));
}

bool same_site(std::string_view host_a, std::string_view host_b) {
  std::string storage_a;
  std::string storage_b;
  const std::string_view a = site_view(lowered(host_a, storage_a));
  return !a.empty() && a == site_view(lowered(host_b, storage_b));
}

bool domain_matches(std::string_view host, std::string_view domain) {
  std::string storage_h;
  std::string storage_d;
  const std::string_view h = lowered(host, storage_h);
  std::string_view d = lowered(domain, storage_d);
  if (!d.empty() && d.front() == '.') d.remove_prefix(1);
  if (h == d) return true;
  return h.size() > d.size() && h.ends_with(d) &&
         h[h.size() - d.size() - 1] == '.' && !is_ip_literal(h);
}

const std::string& SiteCache::site_of(std::string_view host) {
  if (const auto it = sites_.find(host); it != sites_.end()) {
    return it->second;
  }
  return sites_.emplace(std::string(host), etld_plus_one(host))
      .first->second;
}

}  // namespace cg::net
