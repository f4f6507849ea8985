// Analysis framework (paper §4.3): cross-domain access detection, encoded
// identifier matching, exfiltration confirmation, manipulation
// classification, and dataset-level aggregation.
//
// The analyzer is a thin stateful wrapper over the fold/merge algebra in
// analysis/fold.h: ingest() folds one visit into a SiteSummary and merges
// it into the running state, so the full 20k-site crawl fits in memory and
// the exact same code path serves batch analysis (analyze_archive) and the
// online query tier (src/serve/).
#pragma once

#include "analysis/fold.h"

namespace cg::analysis {

class Analyzer {
 public:
  explicit Analyzer(const entities::EntityMap& entities,
                    AnalyzerOptions options = {})
      : entities_(entities), options_(options) {}

  /// Processes one visit's logs into the aggregates: fold_visit + merge.
  /// Incomplete visits only contribute crawl counters and timings (the
  /// paper drops them too).
  void ingest(const instrument::VisitLog& log) {
    state_.merge(fold_visit(entities_, options_, log));
  }

  /// Folds `other` into this analyzer. Precondition: `other` ingested a
  /// *later*, disjoint site-index shard of the same corpus, with the same
  /// entity map and options (see SiteSummary::merge).
  void merge(Analyzer&& other) { state_.merge(std::move(other.state_)); }

  /// Adopts a precomputed summary (the serving tier's load path): the
  /// summary must cover a later, disjoint site-rank range, same contract
  /// as merge().
  void apply(SiteSummary&& summary) { state_.merge(std::move(summary)); }

  /// What every visit is folded with; analyze_archive folds an archive
  /// with these, then apply()s the result.
  const entities::EntityMap& entities() const { return entities_; }
  const AnalyzerOptions& options() const { return options_; }

  /// The complete aggregate state — everything below is a view into it.
  const SiteSummary& summary() const { return state_; }

  const Totals& totals() const { return state_.totals; }
  const std::map<CookiePair, PairStats>& pairs() const {
    return state_.pairs;
  }
  const std::map<std::string, DomainStats>& domains() const {
    return state_.domains;
  }

  /// Unique pair counts by creating API.
  int pair_count(cookies::CookieSource via) const {
    return state_.pair_count(via);
  }
  int exfiltrated_pair_count(cookies::CookieSource via) const {
    return state_.exfiltrated_pair_count(via);
  }
  int overwritten_pair_count(cookies::CookieSource via) const {
    return state_.overwritten_pair_count(via);
  }
  int deleted_pair_count(cookies::CookieSource via) const {
    return state_.deleted_pair_count(via);
  }

  /// Rows for Table 2 (top exfiltrated) / Table 5 (top manipulated),
  /// sorted by destination-entity (resp. manipulator-entity) count.
  using RankedPair = SiteSummary::RankedPair;
  std::vector<RankedPair> top_exfiltrated(std::size_t n) const {
    return state_.top_exfiltrated(n);
  }
  std::vector<RankedPair> top_overwritten(std::size_t n) const {
    return state_.top_overwritten(n);
  }
  std::vector<RankedPair> top_deleted(std::size_t n) const {
    return state_.top_deleted(n);
  }

  /// Rows for Figures 2 / 6: (domain, unique-cookie count).
  std::vector<std::pair<std::string, int>> top_exfiltrator_domains(
      std::size_t n) const {
    return state_.top_exfiltrator_domains(n);
  }
  std::vector<std::pair<std::string, int>> top_overwriter_domains(
      std::size_t n) const {
    return state_.top_overwriter_domains(n);
  }
  std::vector<std::pair<std::string, int>> top_deleter_domains(
      std::size_t n) const {
    return state_.top_deleter_domains(n);
  }

 private:
  const entities::EntityMap& entities_;
  AnalyzerOptions options_;
  SiteSummary state_;
};

}  // namespace cg::analysis
