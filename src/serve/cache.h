// Bounded answer cache for rendered per-site answers.
//
// Under zipfian traffic a few hundred popular sites absorb most per-site
// lookups. A `site <rank>` answer never changes for a given rank of a
// loaded archive set, so caching the rendered report::Json turns the whole
// query (binary search of the footer index, render of the site's row kept
// by the open-time fold) into a map lookup and one copy. The cache is
// sharded by rank to keep lock hold times off the serving path's critical
// section.
//
// Policy (deterministic — a pure function of the access sequence, no
// wall-clock, no randomness):
//   admission:  answers whose block's *encoded* size exceeds
//               max_block_bytes are never admitted (one pathological
//               megasite must not evict a shard's whole working set).
//               The caller passes the footer index length (or, for a
//               wave chain, the materialized payload size).
//   eviction:   strict LRU per shard; each shard holds at most
//               max_entries / shards entries.
//
// The cache is semantically transparent: hit or miss, the caller gets the
// same answer, so query answers are byte-identical at any thread count even
// though concurrent interleavings may populate shards in different orders.
// Counters are atomics exported into obs::MetricsRegistry (serve.cache.*) —
// totals are interleaving-independent, per-shard occupancy is diagnostic
// only.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "report/json.h"

namespace cg::serve {

struct CacheConfig {
  /// Total rendered-answer entries across all shards; 0 disables caching.
  std::size_t max_entries = 4096;
  /// Admission bound on the encoded block size (footer index length).
  std::uint64_t max_block_bytes = 1 << 20;
  /// Lock shards; clamped to [1, max_entries] so every shard holds ≥ 1.
  int shards = 16;
};

class AnswerCache {
 public:
  explicit AnswerCache(CacheConfig config);

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// Cached answer for (archive, rank), or null on miss. Thread-safe; a
  /// hit refreshes the entry's LRU position.
  std::shared_ptr<const report::Json> get(std::uint32_t archive, int rank);

  /// True when (archive, rank) holds an answer. Counts nothing and leaves
  /// the LRU order alone.
  bool contains(std::uint32_t archive, int rank) const;

  /// Offers an answer. Rejected (counted, not stored) when encoded_bytes
  /// exceeds the admission bound or caching is disabled; otherwise
  /// inserted, evicting the shard's LRU entry if full. An answer already
  /// present keeps the existing entry (refreshed).
  void put(std::uint32_t archive, int rank, std::uint64_t encoded_bytes,
           std::shared_ptr<const report::Json> answer);

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t insertions = 0;
    std::int64_t evictions = 0;
    std::int64_t rejected_admission = 0;  // over max_block_bytes
    std::int64_t entries = 0;             // current occupancy
  };
  Stats stats() const;

  /// Exports serve.cache.* counters/gauges into `registry`.
  void export_metrics(obs::MetricsRegistry& registry) const;

  const CacheConfig& config() const { return config_; }

 private:
  using Key = std::pair<std::uint32_t, int>;
  struct Entry {
    Key key;
    std::shared_ptr<const report::Json> answer;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::map<Key, std::list<Entry>::iterator> index;
  };

  Shard& shard_for(int rank) const {
    return *shards_[static_cast<std::size_t>(rank) % shards_.size()];
  }

  CacheConfig config_;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  mutable std::atomic<std::int64_t> insertions_{0};
  mutable std::atomic<std::int64_t> evictions_{0};
  mutable std::atomic<std::int64_t> rejected_{0};
};

/// The name perfbench (`perfbench/src/layers.cpp`) reads the cache's
/// `Stats` under; kept until the benchmark itself moves to `AnswerCache`.
using BlockCache = AnswerCache;

}  // namespace cg::serve
