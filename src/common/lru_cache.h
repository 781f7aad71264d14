// A reusable sharded LRU cache for long-lived serving processes.
//
// The batch reproduction of the paper could afford unbounded memo maps (a job
// ends, memory is reclaimed); a long-lived extraction service cannot. This
// template provides the bounded replacement used both for whole-list result
// caching in tegra::serve::ExtractionService and for the co-occurrence memo
// inside CorpusStats.
//
// Design:
//  * N independent shards, each a classic (doubly-linked list + hash map) LRU
//    guarded by its own mutex, so concurrent lookups on different keys rarely
//    contend.
//  * Per-shard capacity = ceil(capacity / shards); total size never exceeds
//    shards * per-shard capacity and in practice stays <= capacity rounded up
//    by at most (shards - 1).
//  * Built-in hit/miss/eviction counters (relaxed atomics) so callers can
//    surface cache behavior through a metrics registry without the cache
//    depending on one.
//  * GetOrCompute runs the miss closure *outside* the shard lock; two racing
//    misses may both compute, and the second insert simply refreshes the
//    entry. This keeps expensive computations (postings intersections, full
//    extractions) from serializing the shard.
//
// A capacity of 0 disables caching entirely: Get always misses, Put is a
// no-op, and GetOrCompute degenerates to calling the closure.

#ifndef TEGRA_COMMON_LRU_CACHE_H_
#define TEGRA_COMMON_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tegra {

/// \brief Point-in-time counters of a ShardedLruCache.
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t size = 0;      ///< Current number of resident entries.
  size_t capacity = 0;  ///< Configured capacity (0 = caching disabled).

  /// Hit fraction in [0, 1]; 0 when no lookups have happened.
  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// \brief A thread-safe, sharded, bounded LRU map from K to V.
///
/// V is returned by value from Get/GetOrCompute; use a shared_ptr V for large
/// payloads (the ExtractionService does exactly that for cached tables).
template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLruCache {
 public:
  /// \param capacity total entry budget across all shards (0 disables).
  /// \param num_shards concurrency width; clamped to >= 1 and never more
  /// than the capacity (a 4-entry cache gets at most 4 shards).
  explicit ShardedLruCache(size_t capacity, size_t num_shards = 8)
      : capacity_(capacity) {
    if (num_shards < 1) num_shards = 1;
    if (capacity > 0 && num_shards > capacity) num_shards = capacity;
    shard_capacity_ =
        capacity == 0 ? 0 : (capacity + num_shards - 1) / num_shards;
    shards_ = std::vector<Shard>(num_shards);
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Looks up `key`, promoting it to most-recently-used on a hit.
  std::optional<V> Get(const K& key) {
    if (capacity_ == 0) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  /// Inserts or refreshes `key`; evicts the least-recently-used entry of the
  /// key's shard when the shard is at capacity.
  void Put(const K& key, V value) {
    if (capacity_ == 0) return;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.map.emplace(key, shard.lru.begin());
    if (shard.lru.size() > shard_capacity_) {
      shard.map.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Returns the cached value for `key`, or computes it with `fn`, caches it
  /// and returns it. `fn` runs without any cache lock held; concurrent misses
  /// on the same key may compute twice (last writer wins), which is safe for
  /// the pure functions this cache memoizes.
  template <typename Fn>
  V GetOrCompute(const K& key, Fn&& fn) {
    if (std::optional<V> hit = Get(key)) return std::move(*hit);
    V value = fn();
    Put(key, value);
    return value;
  }

  /// Removes every entry (counters are preserved).
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.lru.clear();
    }
  }

  /// Current number of resident entries (sums shard sizes; a racy snapshot
  /// under concurrent writes, exact when quiescent).
  size_t Size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  LruCacheStats Stats() const {
    LruCacheStats s;
    s.hits = hits();
    s.misses = misses();
    s.evictions = evictions();
    s.size = Size();
    s.capacity = capacity_;
    return s;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::list<std::pair<K, V>> lru;  // front = most recently used
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
        map;
  };

  Shard& ShardFor(const K& key) {
    // Re-mix the hash so that hash functions with weak low bits (or identity
    // hashes of sequential keys) still spread across shards.
    uint64_t h = static_cast<uint64_t>(Hash{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return shards_[h % shards_.size()];
  }

  size_t capacity_;
  size_t shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace tegra

#endif  // TEGRA_COMMON_LRU_CACHE_H_
