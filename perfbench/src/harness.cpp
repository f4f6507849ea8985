#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace cgbench {

std::uint64_t corpus_seed(const Options& options) {
  return 0xC00C1EULL + options.seed;
}

std::uint64_t stream_seed(const Options& options) {
  return 0x5EEDCA5EULL + options.seed;
}

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const auto i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(i, values.size() - 1)];
}

std::uint64_t fnv64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, int group)
    : tracer_(tracer) {
  if (!tracer.enabled_) return;
  Span span;
  span.name = name;
  span.id = static_cast<int>(tracer.spans_.size());
  span.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  span.group = group;
  index_ = span.id;
  tracer.spans_.push_back(span);
  tracer.open_.push_back(index_);
  tracer.spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_.open_.pop_back();
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.duration_ns()));
    }
  }
  return out;
}

double Tracer::total_ns(std::string_view name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += static_cast<double>(span.duration_ns());
  }
  return total;
}

std::map<std::string, double> Tracer::self_ns_by_name() const {
  // Children nest strictly inside their parent on one thread, so the time
  // they cover is the sum of their durations.
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.duration_ns());
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    self[std::string(span.name)] +=
        static_cast<double>(span.duration_ns()) -
        child_ns[static_cast<std::size_t>(span.id)];
  }
  return self;
}

bool Tracer::write(const std::string& path,
                   const std::string& provenance) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"provenance\":" << provenance << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"group\":" << s.group
        << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns - origin << ",\"end_ns\":" << s.end_ns - origin << "}";
  }
  out << "\n],\"self_ns\":{";
  bool first = true;
  for (const auto& [name, ns] : self_ns_by_name()) {
    out << (first ? "" : ",") << "\"" << name << "\":" << ns;
    first = false;
  }
  out << "}}\n";
  out.flush();
  return static_cast<bool>(out);
}

// ---- Result -----------------------------------------------------------------

bool Result::check(const std::string& what, bool passed) {
  checks.emplace_back(what, passed);
  std::fprintf(stderr, "check %-58s %s\n", what.c_str(),
               passed ? "ok" : "FAILED");
  return passed;
}

bool Result::correct() const {
  if (checks.empty()) return false;
  for (const auto& [what, passed] : checks) {
    if (!passed) return false;
  }
  return true;
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::string provenance_json(const Result& result) {
  std::string out = "{";
  for (const auto& [key, value] : result.provenance) {
    if (out.size() > 1) out += ",";
    out += quoted(key) + ":" + quoted(value);
  }
  return out + "}";
}

void print_result(const Result& result, bool per_layer) {
  std::printf("provenance %s\n", provenance_json(result).c_str());
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    if (!metrics.empty()) metrics += ",";
    metrics += quoted(name) + ":{\"value\":" + number(metric.value) +
               ",\"unit\":" + quoted(metric.unit) + "}";
  }
  std::printf("%s pass: %lld attempted, %lld failed, %s\n",
              per_layer ? "traced" : "measured", result.attempted,
              result.failed, result.correct() ? "outputs correct" :
                                                "OUTPUT CHECK FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              result.correct() ? "true" : "false", result.attempted,
              result.failed, metrics.c_str());
  std::fflush(stdout);
}

}  // namespace cgbench
