#include "serve/result_cache.h"

#include <algorithm>

#include "util/binary_io.h"

namespace ganc {

uint64_t ExclusionFingerprint(std::span<const ItemId> sorted_exclusions) {
  return Fnv1aHash(sorted_exclusions.data(),
                   sorted_exclusions.size() * sizeof(ItemId));
}

size_t ServeResultCache::KeyHash::operator()(const Key& k) const {
  // Pack the key fields into one canonical byte stream; FNV-1a mixes the
  // low bits well enough for shard selection and bucket placement.
  const uint64_t words[3] = {
      (static_cast<uint64_t>(static_cast<uint32_t>(k.user)) << 32) |
          static_cast<uint32_t>(k.n),
      k.exclusion_fp, k.snapshot_version};
  return static_cast<size_t>(Fnv1aHash(words, sizeof(words)));
}

ServeResultCache::ServeResultCache(size_t capacity, size_t num_shards)
    : capacity_(std::max<size_t>(capacity, 1)),
      shards_(std::clamp<size_t>(num_shards, 1, std::max<size_t>(capacity, 1))) {
  per_shard_capacity_ = std::max<size_t>(capacity_ / shards_.size(), 1);
}

ServeResultCache::Shard& ServeResultCache::ShardFor(const Key& key) {
  return shards_[KeyHash{}(key) % shards_.size()];
}

bool ServeResultCache::Lookup(const Key& key, std::vector<ItemId>* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  out->assign(it->second->items.begin(), it->second->items.end());
  return true;
}

void ServeResultCache::Insert(const Key& key, std::span<const ItemId> items) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->items.assign(items.begin(), items.end());
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(
      Entry{key, std::vector<ItemId>(items.begin(), items.end())});
  shard.index.emplace(key, shard.lru.begin());
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
  }
}

void ServeResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

size_t ServeResultCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace ganc
