// cgbench harness: options, clocks, statistics, span tracing and the result
// record every workload fills in.
//
// The benchmark is a client of the program under test: it times its own
// calls into the modules' public functions and reads the program's existing
// metrics registries. Nothing here is compiled into src/.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cgbench {

// ---- options ---------------------------------------------------------------

enum class Corruption { kNone, kFlipByte, kTruncate };

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  // Scale. 0 = the workload's default; the self-test shrinks these.
  int sites = 0;
  int queries = 0;
  int sample = 0;
  // Negative self-test: damage the packed archive before it is read.
  Corruption corrupt = Corruption::kNone;
  std::string spans_path;  // where the traced pass writes its spans
  std::string commit = "unknown";
};

/// Input seeds derived from --seed: seed 0 is the repo's default corpus
/// and serve stream, every other seed offsets both.
std::uint64_t corpus_seed(const Options& options);
std::uint64_t stream_seed(const Options& options);
int nproc();

// ---- clocks and process counters -----------------------------------------

std::int64_t now_ns();
double seconds_since(std::int64_t start_ns);
/// Process user + system CPU seconds (all threads).
double process_cpu_s();
/// High-water resident set (VmHWM), in MB.
double peak_rss_mb();
/// Resets VmHWM to the current RSS, so later peaks exclude earlier phases.
void reset_peak_rss();

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> values, double p);
std::uint64_t fnv64(std::string_view bytes);

// ---- spans ------------------------------------------------------------------

/// One timed call into a layer. `group` ties together the calls made for
/// one site rank or one query index; `parent` is the enclosing span's id
/// (-1 for a root).
struct Span {
  std::string_view name;  // "layer.function"; points at a literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;
  int group = -1;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span recorder. Disabled, a scope costs one branch, which is
/// how the untraced twin of the traced pass runs the same code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Drops every span recorded after the first `count` (none may be open).
  void truncate(std::size_t count) { spans_.resize(count); }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, int group);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ns) of every span with this name, in record order.
  std::vector<double> durations(std::string_view name) const;
  double total_ns(std::string_view name) const;
  /// Per-name self time: span time minus the time its children cover.
  std::map<std::string, double> self_ns_by_name() const;
  /// Writes every span as JSON. False on an I/O error.
  bool write(const std::string& path, const std::string& provenance) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of indices into spans_
};

// ---- results ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  std::map<std::string, Metric> metrics;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::pair<std::string, bool>> checks;  // (what, passed)
  std::map<std::string, std::string> provenance;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records an output check; a failed one fails the run.
  bool check(const std::string& what, bool passed);
  bool correct() const;
};

/// The provenance map as one JSON object.
std::string provenance_json(const Result& result);
/// Prints the run's one-line result: the last line of standard output.
void print_result(const Result& result, bool per_layer);

}  // namespace cgbench
