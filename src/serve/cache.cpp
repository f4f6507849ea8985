#include "serve/cache.h"

#include <algorithm>
#include <utility>

namespace cg::serve {

AnswerCache::AnswerCache(CacheConfig config) : config_(config) {
  std::size_t shard_count = config_.shards < 1
                                ? 1
                                : static_cast<std::size_t>(config_.shards);
  if (config_.max_entries == 0) {
    shard_count = 1;  // disabled: one empty shard keeps the code path uniform
    per_shard_capacity_ = 0;
  } else {
    shard_count = std::min(shard_count, config_.max_entries);
    per_shard_capacity_ = config_.max_entries / shard_count;
  }
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const report::Json> AnswerCache::get(std::uint32_t archive,
                                                     int rank) {
  Shard& shard = shard_for(rank);
  const Key key{archive, rank};
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Refresh: splice the entry to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->answer;
}

bool AnswerCache::contains(std::uint32_t archive, int rank) const {
  Shard& shard = shard_for(rank);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.count(Key{archive, rank}) > 0;
}

void AnswerCache::put(std::uint32_t archive, int rank,
                      std::uint64_t encoded_bytes,
                      std::shared_ptr<const report::Json> answer) {
  if (per_shard_capacity_ == 0 || encoded_bytes > config_.max_block_bytes) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& shard = shard_for(rank);
  const Key key{archive, rank};
  // Declared before the lock, so the evicted answer is destroyed after the
  // lock is released: no reader of the shard should wait on freeing it,
  // and its deleter may re-enter this cache.
  std::shared_ptr<const report::Json> evicted;
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Another thread rendered the same answer first; keep the incumbent.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    evicted = std::move(shard.lru.back().answer);
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(Entry{key, std::move(answer)});
  shard.index[key] = shard.lru.begin();
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

AnswerCache::Stats AnswerCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.rejected_admission = rejected_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += static_cast<std::int64_t>(shard->lru.size());
  }
  return stats;
}

void AnswerCache::export_metrics(obs::MetricsRegistry& registry) const {
  const Stats stats = this->stats();
  registry.add("serve.cache.hits", stats.hits);
  registry.add("serve.cache.misses", stats.misses);
  registry.add("serve.cache.insertions", stats.insertions);
  registry.add("serve.cache.evictions", stats.evictions);
  registry.add("serve.cache.rejected_admission", stats.rejected_admission);
  registry.gauge_max("serve.cache.entries", stats.entries);
  registry.gauge_max("serve.cache.capacity",
                     static_cast<std::int64_t>(per_shard_capacity_ *
                                               shards_.size()));
}

}  // namespace cg::serve
