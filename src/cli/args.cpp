#include "cli/args.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace cg::cli {
namespace {

[[noreturn]] void fail(std::string_view prog, const std::string& error) {
  std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(prog.size()),
               prog.data(), error.c_str());
  std::exit(2);
}

}  // namespace

bool Args::has(std::string_view flag) const {
  return std::any_of(flags.begin(), flags.end(),
                     [&](const auto& given) { return given.first == flag; });
}

std::string Args::get(std::string_view flag, std::string_view fallback) const {
  const std::vector<std::string> values = all(flag);
  return values.empty() ? std::string(fallback) : values.back();
}

std::vector<std::string> Args::all(std::string_view flag) const {
  std::vector<std::string> values;
  for (const auto& [name, value] : flags) {
    if (name == flag) values.push_back(value);
  }
  return values;
}

std::uint64_t Args::get_uint(std::string_view flag, std::uint64_t fallback,
                             std::uint64_t min_value,
                             std::uint64_t max_value) const {
  if (!has(flag)) return fallback;
  return uint_or_exit(prog, "--" + std::string(flag), get(flag), min_value,
                      max_value);
}

int Args::get_int(std::string_view flag, int fallback, int min_value,
                  int max_value) const {
  return static_cast<int>(get_uint(
      flag, static_cast<std::uint64_t>(fallback),
      static_cast<std::uint64_t>(min_value),
      static_cast<std::uint64_t>(max_value)));
}

std::optional<Args> parse(const std::vector<std::string>& tokens,
                          const Spec& spec, std::string* error) {
  Args args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.size() < 2 || token[0] != '-') {
      args.positionals.push_back(token);
      continue;
    }
    const auto flag =
        std::find_if(spec.flags.begin(), spec.flags.end(), [&](const Flag& f) {
          return token.starts_with("--") && token.substr(2) == f.name;
        });
    if (flag == spec.flags.end()) {
      *error = "unknown flag " + token;
      return std::nullopt;
    }
    std::string value;
    if (!flag->boolean) {
      if (i + 1 == tokens.size() || tokens[i + 1].starts_with("--")) {
        *error = token + " needs a value";
        return std::nullopt;
      }
      value = tokens[++i];
    }
    args.flags.emplace_back(flag->name, std::move(value));
  }
  const int count = static_cast<int>(args.positionals.size());
  if (count > spec.max_args) {
    *error = "unexpected argument \"" + args.positionals[spec.max_args] + "\"";
    return std::nullopt;
  }
  if (count < spec.min_args) {
    *error = "takes at least " + std::to_string(spec.min_args) +
             " argument(s), got " + std::to_string(count);
    return std::nullopt;
  }
  return args;
}

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t min_value,
                                        std::uint64_t max_value,
                                        std::string* error) {
  const bool hex = text.starts_with("0x") || text.starts_with("0X");
  const std::string_view digits = hex ? text.substr(2) : text;
  const char* const end = digits.data() + digits.size();
  std::uint64_t value = 0;
  const auto [stop, code] =
      std::from_chars(digits.data(), end, value, hex ? 16 : 10);
  const bool leading_zero = !hex && digits.size() > 1 && digits[0] == '0';
  if (code != std::errc() || stop != end || leading_zero ||
      value < min_value || value > max_value) {
    *error = "must be an integer in [" + std::to_string(min_value) + ", " +
             std::to_string(max_value) +
             "] (decimal with no leading zero, or 0x hex), got \"" +
             std::string(text) + "\"";
    return std::nullopt;
  }
  return value;
}

Args parse_or_exit(std::string_view prog, int argc, char** argv, int first,
                   const Spec& spec) {
  std::string error;
  std::optional<Args> args = parse(
      std::vector<std::string>(argv + std::min(first, argc), argv + argc),
      spec, &error);
  if (!args) fail(prog, error);
  args->prog = prog;
  return std::move(*args);
}

std::uint64_t uint_or_exit(std::string_view prog, std::string_view what,
                           std::string_view text, std::uint64_t min_value,
                           std::uint64_t max_value) {
  std::string error;
  const auto value = parse_uint(text, min_value, max_value, &error);
  if (!value) fail(prog, std::string(what) + " " + error);
  return *value;
}

}  // namespace cg::cli
