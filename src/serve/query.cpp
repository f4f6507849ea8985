#include "serve/query.h"

#include <cctype>
#include <vector>

namespace cg::serve {
namespace {

/// ASCII whitespace: space, \t, \n, \v, \f, \r. A CRLF client's trailing
/// \r is a separator, never part of the last token.
bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Splits on runs of ASCII whitespace; no escaping (entity names in the
/// corpus contain none).
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

std::optional<int> parse_int(std::string_view text) {
  if (text.empty() || text.size() > 9) return std::nullopt;
  int value = 0;
  for (const char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    value = value * 10 + (c - '0');
  }
  return value;
}

}  // namespace

std::string_view query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSite:
      return "site";
    case QueryKind::kTable1:
      return "table1";
    case QueryKind::kTotals:
      return "totals";
    case QueryKind::kTopExfiltrated:
      return "top-exfiltrated";
    case QueryKind::kTopDomains:
      return "top-domains";
    case QueryKind::kEntity:
      return "entity";
    case QueryKind::kStats:
      return "stats";
    case QueryKind::kWaves:
      return "waves";
  }
  return "unknown";
}

std::optional<Query> parse_query(std::string_view line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return std::nullopt;
  Query query;
  const std::string_view verb = tokens[0];

  if (verb == "site") {
    if (tokens.size() != 2) return std::nullopt;
    const auto rank = parse_int(tokens[1]);
    if (!rank) return std::nullopt;
    query.kind = QueryKind::kSite;
    query.rank = *rank;
    return query;
  }
  if (verb == "table1" || verb == "totals" || verb == "stats") {
    if (tokens.size() != 1) return std::nullopt;
    query.kind = verb == "table1"   ? QueryKind::kTable1
                 : verb == "totals" ? QueryKind::kTotals
                                    : QueryKind::kStats;
    return query;
  }
  if (verb == "top-exfiltrated" || verb == "top-domains") {
    if (tokens.size() > 2) return std::nullopt;
    if (tokens.size() == 2) {
      const auto n = parse_int(tokens[1]);
      if (!n || *n <= 0) return std::nullopt;
      query.top_n = *n;
    }
    query.kind = verb == "top-exfiltrated" ? QueryKind::kTopExfiltrated
                                           : QueryKind::kTopDomains;
    return query;
  }
  if (verb == "entity") {
    if (tokens.size() != 2) return std::nullopt;
    query.kind = QueryKind::kEntity;
    query.entity = std::string(tokens[1]);
    return query;
  }
  if (verb == "waves") {
    if (tokens.size() > 2) return std::nullopt;
    query.kind = QueryKind::kWaves;
    if (tokens.size() == 2) query.domain = std::string(tokens[1]);
    return query;
  }
  return std::nullopt;
}

std::string to_text(const Query& query) {
  std::string out(query_kind_name(query.kind));
  switch (query.kind) {
    case QueryKind::kSite:
      out += ' ';
      out += std::to_string(query.rank);
      break;
    case QueryKind::kTopExfiltrated:
    case QueryKind::kTopDomains:
      out += ' ';
      out += std::to_string(query.top_n);
      break;
    case QueryKind::kEntity:
      out += ' ';
      out += query.entity;
      break;
    case QueryKind::kWaves:
      if (!query.domain.empty()) {
        out += ' ';
        out += query.domain;
      }
      break;
    case QueryKind::kTable1:  // no-argument queries: the verb is the text
    case QueryKind::kTotals:
    case QueryKind::kStats:
      break;
  }
  return out;
}

}  // namespace cg::serve
