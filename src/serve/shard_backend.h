// ShardBackend: one partition of the serving tier, as a router sees it.
//
// ShardRouter (serve/shard_router.h) sends each request to the backend
// that owns the user and fans control verbs out to every backend. Two
// implementations exist: ServiceShard answers inside this process, and
// ProcessShard forwards to a `ganc_serve --shard=k/N` child over its
// stdin/stdout pipes. The router, and the frontend above it, cannot
// tell them apart; the child's wire format stays inside ProcessShard.

#ifndef GANC_SERVE_SHARD_BACKEND_H_
#define GANC_SERVE_SHARD_BACKEND_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/topn_store.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace ganc {

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;
  ShardBackend(const ShardBackend&) = delete;
  ShardBackend& operator=(const ShardBackend&) = delete;

  /// Answers one request against the snapshot current at entry
  /// (n = 0 serves the default length). `served_version` (if non-null)
  /// receives the version of the snapshot that computed the list;
  /// `trace` (if non-null) receives the stages this shard can see.
  virtual Status TopNInto(UserId user, int n,
                          std::span<const ItemId> exclusions,
                          std::vector<ItemId>* out, uint64_t* served_version,
                          RequestTrace* trace) = 0;

  /// Swaps in the artifact at `path`. On failure the old snapshot keeps
  /// serving untouched.
  virtual Status Publish(const std::string& path) = 0;

  /// Attaches this shard's segment of a precomputed top-N store.
  virtual Status AttachStore(const std::shared_ptr<const TopNStore>& store) = 0;

  /// Version / source name of the snapshot serving right now.
  virtual uint64_t version() const = 0;
  virtual std::string source() const = 0;

  /// Folds this shard's metric series into `*snap`. `*merged` lists the
  /// in-process registries already folded in, so shards that share one
  /// registry are counted once.
  virtual Status MergeMetricsInto(
      MetricsSnapshot* snap, std::vector<const MetricsRegistry*>* merged) = 0;

  /// Appends up to `count` of this shard's request timelines, newest
  /// first, one newline-terminated TRACE line each. Timelines recorded
  /// in this process are already in TraceRing::Global(), so only a
  /// shard in another process has any to add.
  virtual Status AppendTraces(size_t count, std::string* payload) = 0;

 protected:
  ShardBackend() = default;
};

}  // namespace ganc

#endif  // GANC_SERVE_SHARD_BACKEND_H_
