// The command-line grammar of every binary: cgsim, cgserve, cglint,
// tracking_audit and the benches.
//
// A command declares its flags, each boolean (`--guard`) or valued
// (`--sites N`), and how many positional arguments it takes. parse()
// rejects, naming the token:
//   * a flag the command does not declare, and any other token that starts
//     with `-` where a flag may stand (`-h`);
//   * a valued flag followed by nothing or by another `--token`
//     (`--sites --json a.json`); `-3` after a valued flag is its value;
//   * more or fewer positional arguments than the command takes.
// A repeated flag keeps every occurrence in order: all() reads each one,
// every other accessor reads the last.
//
// Integers are decimal with no leading zero, or 0x hex, and range-checked;
// there is no sign. A crawl that half-parsed `--sites 12x` has measured the
// wrong corpus without saying so, and `010` is neither 10 nor octal 8.
//
// parse() and parse_uint() return a value or an error string, so a test can
// call them. parse_or_exit(), uint_or_exit() and the Args integer getters
// are for main(): they print "<prog>: <error>" and exit 2.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cg::cli {

/// One flag a command reads, named without its leading `--`.
struct Flag {
  std::string_view name;
  bool boolean = false;  // true: takes no value
};

/// Everything one command accepts.
struct Spec {
  std::vector<Flag> flags;
  int min_args = 0;  // positional arguments
  int max_args = 0;
};

/// A parsed command line.
struct Args {
  std::string prog;  // prefixes the errors of the integer getters
  /// Every flag given, in command-line order; a boolean flag's value is "".
  std::vector<std::pair<std::string, std::string>> flags;
  std::vector<std::string> positionals;

  bool has(std::string_view flag) const;
  /// The flag's last value, or `fallback` when it is absent.
  std::string get(std::string_view flag, std::string_view fallback = {}) const;
  /// Every value the flag was given, in command-line order.
  std::vector<std::string> all(std::string_view flag) const;
  /// The flag's last value as an integer in [min_value, max_value], or
  /// `fallback` when it is absent. A malformed or out-of-range value exits
  /// 2 naming the flag.
  std::uint64_t get_uint(std::string_view flag, std::uint64_t fallback,
                         std::uint64_t min_value,
                         std::uint64_t max_value) const;
  /// get_uint for an int flag; `min_value` is at least 0.
  int get_int(std::string_view flag, int fallback, int min_value,
              int max_value) const;
};

/// Parses `tokens` (the command line after the program, or after the
/// command for a multi-command binary) against `spec`.
std::optional<Args> parse(const std::vector<std::string>& tokens,
                          const Spec& spec, std::string* error);

/// A decimal (no leading zero) or 0x-hex integer in [min_value, max_value].
std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t min_value,
                                        std::uint64_t max_value,
                                        std::string* error);

/// parse() over argv[first, argc), with `prog` recorded in the result.
Args parse_or_exit(std::string_view prog, int argc, char** argv, int first,
                   const Spec& spec);

/// parse_uint(), naming `what` (a flag, an environment variable) on error.
std::uint64_t uint_or_exit(std::string_view prog, std::string_view what,
                           std::string_view text, std::uint64_t min_value,
                           std::uint64_t max_value);

}  // namespace cg::cli
