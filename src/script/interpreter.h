// Executes a ScriptOp program against a page.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "script/exec_context.h"
#include "script/ops.h"
#include "script/page_services.h"

namespace cg::script {

/// Expands value-template placeholders: {ts} seconds, {ts_ms} millis,
/// {rand:N} N decimal digits, {hex:N} N hex chars.
std::string expand_template(std::string_view tpl, Rng& rng, TimeMillis now);

/// Splits a document.cookie string ("a=1; b=2") into pairs viewing
/// `cookie_string`.
std::vector<CookiePair> parse_cookie_string(std::string_view cookie_string);

/// Calls `fn(segment)` for each candidate identifier segment of a cookie
/// value, in order: split on non-alphanumeric delimiters, keep segments of
/// at least `min_len` chars. This is both what trackers harvest and what the
/// detector (analysis module) searches for — the paper uses the same rule on
/// both sides (§4.3). Each segment is a view into `value`.
template <typename Fn>
void for_each_identifier_segment(std::string_view value, Fn&& fn,
                                 std::size_t min_len = 8) {
  // ASCII letters and digits: std::isalnum in the "C" locale, without its
  // per-character call or its dependence on the process locale.
  const auto is_alnum = [](char ch) {
    const auto c = static_cast<unsigned char>(ch);
    return (c >= '0' && c <= '9') || ((c | 0x20) >= 'a' && (c | 0x20) <= 'z');
  };
  std::size_t start = 0;
  for (std::size_t i = 0; i <= value.size(); ++i) {
    const bool is_delim = i == value.size() || !is_alnum(value[i]);
    if (is_delim) {
      if (i - start >= min_len) fn(value.substr(start, i - start));
      start = i + 1;
    }
  }
}

/// The segments of for_each_identifier_segment, collected (views into
/// `value`).
std::vector<std::string_view> extract_identifier_segments(
    std::string_view value, std::size_t min_len = 8);

/// Applies an Encoding to an identifier segment.
std::string encode_identifier(std::string_view segment, Encoding encoding);

/// Runs `ops` as `ctx` against `services`. The caller (browser script host)
/// is responsible for stack-frame management around this call.
void run_program(const std::vector<ScriptOp>& ops, const ExecContext& ctx,
                 PageServices& services);

}  // namespace cg::script
