// Deterministic synthetic query workloads for the serving tier.
//
// "Millions of users" means skewed traffic: a small set of popular sites
// absorbs most lookups. ZipfSampler draws site ranks from a zipf(s)
// distribution over [0, n) via one precomputed CDF and a binary search per
// sample; WorkloadGenerator layers a seeded query-type mix on top. Both are
// pure functions of their seed (script::Rng SplitMix64, cglint D2) — the
// same spec generates the same query stream on any machine at any thread
// count, which is what lets ServerTest.ConcurrentReadersMatchSequentialAnswers
// and perfbench's closed-loop check compare N-thread answers against 1-thread
// byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "script/rng.h"
#include "serve/query.h"

namespace cg::serve {

/// Zipf-distributed rank sampler: P(rank k) ∝ 1 / (k+1)^s. `s` ≈ 0.99 is
/// the classic web-popularity exponent; s = 0 degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);

  int n() const { return static_cast<int>(cdf_.size()); }
  double exponent() const { return s_; }

  /// Probability mass of `rank` (0-based popularity order).
  double probability(int rank) const;

  /// Draws one rank using the caller's RNG stream.
  int sample(script::Rng& rng) const;

 private:
  double s_ = 0;
  std::vector<double> cdf_;  // inclusive prefix sums, back() == 1.0
};

/// Query-type mix in parts (need not sum to 100; weights are relative).
/// The default mix models a dashboard backed by the serving tier: mostly
/// per-site lookups with a steady trickle of aggregate panels.
struct WorkloadSpec {
  int site_count = 0;           // ranks drawn from [0, site_count)
  double zipf_exponent = 0.99;  // site-popularity skew
  std::uint64_t seed = 0x5EEDCA5E;

  int weight_site = 90;
  int weight_table1 = 3;
  int weight_totals = 3;
  int weight_top_exfiltrated = 2;
  int weight_top_domains = 1;
  int weight_entity = 1;

  /// Entity names the kEntity queries cycle through (picked uniformly).
  std::vector<std::string> entities = {"Google", "Facebook", "Criteo",
                                       "Adobe", "Amazon"};
};

/// Generates the deterministic query stream described by a WorkloadSpec.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadSpec spec);

  const WorkloadSpec& spec() const { return spec_; }

  /// The next query in the stream (advances the generator).
  Query next();

  /// The first `n` queries of the stream from a fresh generator state —
  /// `generate(n)` twice returns the same vector twice.
  std::vector<Query> generate(std::size_t n);

 private:
  WorkloadSpec spec_;
  ZipfSampler sampler_;
  script::Rng rng_;
  int total_weight_ = 0;
};

}  // namespace cg::serve
