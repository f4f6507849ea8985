// cgbench: the repo's end-to-end benchmark.
//
//   cgbench --workload NAME --seed N --seconds S --trace 0|1
//           [--sites N] [--queries N] [--sample N]
//           [--spans FILE] [--commit SHA] [--corrupt flip|truncate]
//
// Workloads: crawl_pack, guarded_crawl, serve_zipf, serve_cold (see
// perfbench/README.md). --trace 0 prints the end-to-end metrics, --trace 1
// the per-layer ones from a separate 1-thread pass whose spans go to
// --spans. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every output check passed; 2 on bad flags or
// a build that is not Release.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace cgbench;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "cgbench: %s\n"
               "usage: cgbench --workload crawl_pack|guarded_crawl|"
               "serve_zipf|serve_cold --seed N --seconds S --trace 0|1\n"
               "               [--sites N] [--queries N] [--sample N] "
               "[--spans FILE]\n"
               "               [--commit SHA] [--corrupt flip|truncate]\n",
               message);
  std::exit(2);
}

long long parse_int(const char* text, const char* what, long long min_value) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min_value) {
    usage((std::string(what) + " must be an integer >= " +
           std::to_string(min_value))
              .c_str());
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(parse_int(value, "--seed", 0));
    } else if (flag == "--seconds") {
      options.seconds =
          static_cast<double>(parse_int(value, "--seconds", 1));
    } else if (flag == "--trace") {
      options.trace = parse_int(value, "--trace", 0) != 0;
    } else if (flag == "--sites") {
      options.sites = static_cast<int>(parse_int(value, "--sites", 1));
    } else if (flag == "--queries") {
      options.queries = static_cast<int>(parse_int(value, "--queries", 1));
    } else if (flag == "--sample") {
      options.sample = static_cast<int>(parse_int(value, "--sample", 1));
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--corrupt") {
      const std::string how = value;
      if (how == "flip") {
        options.corrupt = Corruption::kFlipByte;
      } else if (how == "truncate") {
        options.corrupt = Corruption::kTruncate;
      } else {
        usage("--corrupt must be flip or truncate");
      }
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);

  // Baselines are Release; numbers from any other build do not compare.
  const std::string build_type = CGBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "cgbench: built as %s, not Release; refusing to run\n",
                 build_type.empty() ? "(no build type)" : build_type.c_str());
    return 2;
  }

  Result result;
  result.provenance["workload"] = options.workload;
  result.provenance["seed"] = std::to_string(options.seed);
  result.provenance["corpus_seed"] = std::to_string(corpus_seed(options));
  result.provenance["stream_seed"] = std::to_string(stream_seed(options));
  result.provenance["seconds"] = std::to_string(options.seconds);
  result.provenance["pass"] = options.trace ? "traced" : "measured";
  result.provenance["nproc"] = std::to_string(nproc());
  result.provenance["compiler"] = CGBENCH_COMPILER;
  result.provenance["build_type"] = build_type;
  result.provenance["commit"] = options.commit;

  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    usage(("unknown workload " + options.workload).c_str());
  }
  run_workload(*workload, options, result);
  if (result.attempted < 1) result.check("the run attempted work", false);

  print_result(result, options.trace);
  return result.correct() ? 0 : 1;
}
