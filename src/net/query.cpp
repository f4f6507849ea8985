#include "net/query.h"

#include "net/percent.h"

namespace cg::net {

bool needs_form_decode(std::string_view raw) {
  for (const char c : raw) {
    if (c == '%' || c == '+') return true;
  }
  return false;
}

std::vector<QueryParam> parse_query(std::string_view query) {
  std::vector<QueryParam> out;
  for_each_query_param(query,
                       [&](std::string_view key, std::string_view value) {
                         out.push_back({form_decode(key), form_decode(value)});
                       });
  return out;
}

std::string build_query(const std::vector<QueryParam>& params) {
  std::string out;
  for (const auto& p : params) {
    if (!out.empty()) out += '&';
    out += percent_encode(p.key);
    out += '=';
    out += percent_encode(p.value);
  }
  return out;
}

std::string query_value(const std::vector<QueryParam>& params,
                        std::string_view key) {
  for (const auto& p : params) {
    if (p.key == key) return p.value;
  }
  return {};
}

}  // namespace cg::net
