// The four workloads. Every one runs the same pipeline — crawl the corpus
// at nproc threads and pack it to a CGAR image, analyze the image, open a
// server on the default-seed fixture and query it in a closed loop — so
// every run reports every end-to-end metric. A workload chooses the corpus, the crawl policy, the
// query mix and cache, and how the measuring time is split between phases.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "harness.h"

namespace cgbench {

struct Workload {
  std::string_view name;
  /// Crawl under CookieGuard: policy kCookieGuard plus one extension per
  /// worker, analyzed live.
  bool guarded = false;
  /// Serve workloads: the corpus is the default-seed fixture (--seed draws
  /// only the query stream), set-up is the server open, peak RSS is reset
  /// once the fixture is built, and the query loop gets most of each round.
  bool serve_focus = false;
  /// serve_cold: uniform ranks and a small block cache, so most lookups
  /// miss. Every other workload serves the default serve::WorkloadSpec mix
  /// with the default cache.
  bool cold = false;
};

/// The named workload, or null.
const Workload* find_workload(std::string_view name);

/// Damages `image` the way Options::corrupt asks (self-test only).
void corrupt(std::string& image, Corruption how);

void run_workload(const Workload& workload, const Options& options,
                  Result& result);

}  // namespace cgbench
