// The shared command-line grammar (src/cli/), one table over every rule:
// integers, flag values, unknown flags, positional arguments and repeated
// flags. Each row is a command line and the parse rendered as text, or the
// error a binary would print after "<prog>: ".
#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/args.h"

namespace cg::cli {
namespace {

struct Case {
  const char* name;
  std::vector<std::string> tokens;
  std::string want;
  int min_args = 0;
  int max_args = 1;
};

// --n reads an int in [1, INT_MAX], --seed any unsigned 64-bit value, --s a
// repeatable string; --b is boolean.
std::string run(const Case& c) {
  const Spec spec{{{"n"}, {"seed"}, {"s"}, {"b", true}}, c.min_args,
                  c.max_args};
  std::string error;
  const auto args = parse(c.tokens, spec, &error);
  if (!args) return error;
  std::string out;
  struct Integer {
    const char* flag;
    std::uint64_t min_value, max_value;
  };
  for (const Integer& i : {Integer{"n", 1, INT_MAX}, {"seed", 0, UINT64_MAX}}) {
    if (!args->has(i.flag)) continue;
    const auto value =
        parse_uint(args->get(i.flag), i.min_value, i.max_value, &error);
    if (!value) return "--" + std::string(i.flag) + " " + error;
    out += std::string(i.flag) + "=" + std::to_string(*value) + " ";
  }
  for (const std::string& s : args->all("s")) out += "s=" + s + " ";
  if (args->has("b")) out += "b ";
  for (const std::string& p : args->positionals) out += "pos=" + p + " ";
  return out;
}

std::string bad_n(const char* text) {
  return std::string("--n must be an integer in [1, 2147483647] (decimal "
                     "with no leading zero, or 0x hex), got \"") +
         text + "\"";
}

std::string bad_seed(const char* text) {
  return std::string("--seed must be an integer in [0, "
                     "18446744073709551615] (decimal with no leading zero, "
                     "or 0x hex), got \"") +
         text + "\"";
}

const Case kCases[] = {
    // Integers.
    {"Zero", {"--seed", "0"}, "seed=0 "},
    {"BelowRange", {"--n", "0"}, bad_n("0")},
    {"RangeLow", {"--n", "1"}, "n=1 "},
    {"RangeHigh", {"--n", "2147483647"}, "n=2147483647 "},
    {"OnePastIntMax", {"--n", "2147483648"}, bad_n("2147483648")},
    {"LeadingZero", {"--n", "010"}, bad_n("010")},
    {"Hex", {"--n", "0x1F"}, "n=31 "},
    {"HexUpperPrefix", {"--n", "0X1f"}, "n=31 "},
    {"HexNoDigits", {"--n", "0x"}, bad_n("0x")},
    {"Minus", {"--n", "-3"}, bad_n("-3")},
    {"Plus", {"--n", "+3"}, bad_n("+3")},
    {"Suffix", {"--n", "12x"}, bad_n("12x")},
    {"Empty", {"--n", ""}, bad_n("")},
    {"Uint64Max", {"--seed", "18446744073709551615"},
     "seed=18446744073709551615 "},
    {"HexUint64Max", {"--seed", "0xFFFFFFFFFFFFFFFF"},
     "seed=18446744073709551615 "},
    {"OnePastUint64Max", {"--seed", "18446744073709551616"},
     bad_seed("18446744073709551616")},
    // Values.
    {"MissingValue", {"--n"}, "--n needs a value"},
    {"ValueIsAFlag", {"--s", "--b"}, "--s needs a value"},
    {"DashValue", {"--s", "-3"}, "s=-3 "},
    {"StdoutDash", {"--s", "-"}, "s=- "},
    // Flags and positional arguments.
    {"UnknownFlag", {"--bogus", "3"}, "unknown flag --bogus"},
    {"SingleDash", {"-h"}, "unknown flag -h"},
    {"BareDashes", {"--"}, "unknown flag --"},
    {"EqualsForm", {"--n=3"}, "unknown flag --n=3"},
    {"BooleanThenPositional", {"--b", "x"}, "b pos=x "},
    {"TooManyPositionals", {"--b", "x", "y"}, "unexpected argument \"y\""},
    {"NoPositionalTaken", {"30", "--n", "20"}, "unexpected argument \"30\"", 0,
     0},
    {"MissingPositional", {"--b"}, "takes at least 1 argument(s), got 0", 1, 1},
    {"Repeated", {"--s", "a", "--n", "2", "--s", "b", "--n", "3"},
     "n=3 s=a s=b "},
};

class CliGrammarTest : public ::testing::TestWithParam<Case> {};

TEST_P(CliGrammarTest, ParsesOrNamesTheError) {
  EXPECT_EQ(run(GetParam()), GetParam().want);
}

INSTANTIATE_TEST_SUITE_P(
    Table, CliGrammarTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& row) { return row.param.name; });

}  // namespace
}  // namespace cg::cli
