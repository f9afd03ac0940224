// Sharded LRU cache over served top-N lists.
//
// The online layer answers many repeated requests for the same (user, n)
// pair — head users dominate real traffic — so RecommendationService
// fronts live scoring with this cache. The key is the full request
// identity: user, list length, a fingerprint of the (canonicalized)
// exclusion set, and the service's snapshot version. Because the version
// is part of the key, a snapshot swap invalidates every cached entry
// implicitly: lookups under the new version miss, and the stale entries
// age out through normal LRU eviction (Clear() drops them eagerly).
//
// Sharding: entries are distributed over independently locked shards by
// key hash, so concurrent request threads rarely contend on one mutex.
// Each shard runs its own LRU (intrusive list + hash map), giving
// approximate-global-LRU behavior at a fraction of the synchronization
// cost — the standard server-cache trade.

#ifndef GANC_SERVE_RESULT_CACHE_H_
#define GANC_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"

namespace ganc {

/// FNV-1a over a canonical (sorted ascending, deduplicated) exclusion
/// set; the empty set hashes to the FNV offset basis. Two requests with
/// the same exclusion *set* always produce the same fingerprint, so they
/// share one cache entry regardless of the order the ids arrived in.
uint64_t ExclusionFingerprint(std::span<const ItemId> sorted_exclusions);

/// Thread-safe sharded LRU mapping request identity -> served item list.
class ServeResultCache {
 public:
  /// Full identity of a served list.
  struct Key {
    UserId user = 0;
    int32_t n = 0;
    uint64_t exclusion_fp = 0;
    uint64_t snapshot_version = 0;

    bool operator==(const Key&) const = default;
  };

  /// `capacity` is the total entry budget across all shards (each shard
  /// gets an equal slice, at least one entry). `num_shards` is clamped
  /// to [1, capacity].
  explicit ServeResultCache(size_t capacity, size_t num_shards = 8);

  ServeResultCache(const ServeResultCache&) = delete;
  ServeResultCache& operator=(const ServeResultCache&) = delete;

  /// Copies the cached list for `key` into `*out` and promotes the entry
  /// to most-recently-used. Returns false (out untouched) on miss.
  bool Lookup(const Key& key, std::vector<ItemId>* out);

  /// Inserts (or refreshes) the entry, evicting the shard's LRU tail
  /// when over budget.
  void Insert(const Key& key, std::span<const ItemId> items);

  /// Drops every entry (eager invalidation on snapshot swap).
  void Clear();

  /// Current entry count across shards.
  size_t size() const;

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    Key key;
    std::vector<ItemId> items;
  };

  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  /// One independently locked LRU: `lru` front is most-recent, the map
  /// indexes into it.
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& ShardFor(const Key& key);

  size_t capacity_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace ganc

#endif  // GANC_SERVE_RESULT_CACHE_H_
