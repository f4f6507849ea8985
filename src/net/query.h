// Query-string codec.
//
// Exfiltration detection (paper §4.3) extracts candidate identifiers from
// "the query strings of all outbound URLs initiated by third-party scripts";
// this module provides the parsing half of that pipeline.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cg::net {

struct QueryParam {
  std::string key;
  std::string value;
  friend bool operator==(const QueryParam&, const QueryParam&) = default;
};

/// Walks "a=1&b=two" in order, calling `fn(key, value)` with both still
/// form-encoded: views into `query`, nothing copied. Keys without '=' yield
/// an empty value; empty segments are skipped. This is the one query
/// parser; parse_query() is this walk plus form_decode.
template <typename Fn>
void for_each_query_param(std::string_view query, Fn&& fn) {
  std::size_t pos = 0;
  while (pos <= query.size()) {
    auto amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view segment = query.substr(pos, amp - pos);
    if (!segment.empty()) {
      const auto eq = segment.find('=');
      if (eq == std::string_view::npos) {
        fn(segment, std::string_view());
      } else {
        fn(segment.substr(0, eq), segment.substr(eq + 1));
      }
    }
    pos = amp + 1;
  }
}

/// Whether form_decode(`raw`) can differ from `raw`: it holds a '%' or '+'.
/// Callers that only read a value skip the copy when this is false.
bool needs_form_decode(std::string_view raw);

/// Parses "a=1&b=two" into decoded key/value pairs. Keys without '=' yield
/// an empty value; empty segments are skipped.
std::vector<QueryParam> parse_query(std::string_view query);

/// Serialises pairs back into a percent-encoded query string.
std::string build_query(const std::vector<QueryParam>& params);

/// Returns the first value for `key`, or empty string.
std::string query_value(const std::vector<QueryParam>& params,
                        std::string_view key);

}  // namespace cg::net
