// ShardRouter: consistent-hash fan-out over N shard backends.
//
// The router owns its backends and routes every request by
// ShardForUser(user) — the same persisted hash the shards gate on, so a
// routed request always lands on its owner. Ids outside the train set's
// user range (including negative ids) go to shard 0, the fallback
// shard, whose service rejects them with the canonical out-of-range
// error; that keeps error responses byte-identical to an unsharded
// server, which the parity suites diff on.
//
// A backend is a ServiceShard in this process or a ProcessShard that
// forwards to a `ganc_serve --shard=k/N` child (serve/shard_backend.h);
// every topology — one shard, N in-process shards, N child processes,
// and the child's own single partition — is a router over backends.
//
// Publish fans out sequentially shard-by-shard. On a partial failure
// the shards already swapped keep their new snapshot (snapshots are
// bit-equal replicas of the same artifact, so a half-published router
// still serves every response from exactly one valid snapshot — per-
// response version attribution is what the swap tests check, not
// cross-shard version agreement). The error names the failing shard.

#ifndef GANC_SERVE_SHARD_ROUTER_H_
#define GANC_SERVE_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/service_shard.h"
#include "serve/shard_backend.h"
#include "util/metrics.h"
#include "util/status.h"

namespace ganc {

class ShardRouter {
 public:
  /// Loads the artifact at `path` into `num_shards` shards (each shard
  /// owns a full snapshot replica; what is partitioned is the request
  /// space and the per-shard cache/store/batcher state).
  static Result<std::unique_ptr<ShardRouter>> Load(SnapshotKind kind,
                                                   const std::string& path,
                                                   const RatingDataset& train,
                                                   size_t num_shards,
                                                   ServiceConfig config);

  /// Wraps pre-built shards (Adopt-based benches/tests). The shards
  /// must form one consistent partition: spec i/N at position i.
  static Result<std::unique_ptr<ShardRouter>> FromShards(
      std::vector<std::unique_ptr<ServiceShard>> shards);

  /// Routes over arbitrary backends, backend i owning hash bucket i.
  /// The train-set dimensions and default list length come from the
  /// caller: a backend in another process cannot report them.
  static Result<std::unique_ptr<ShardRouter>> FromBackends(
      std::vector<std::unique_ptr<ShardBackend>> backends, int32_t num_users,
      int32_t num_items, int default_n);

  size_t num_shards() const { return shards_.size(); }

  /// The shard `user` routes to: its hash owner for in-range ids,
  /// shard 0 (fallback) for everything else.
  size_t IndexFor(UserId user) const {
    if (user < 0 || user >= num_users_) return 0;
    return ShardForUser(user, shards_.size());
  }

  /// Routes one request to its owning shard.
  Status TopNInto(UserId user, int n, std::span<const ItemId> exclusions,
                  std::vector<ItemId>* out,
                  uint64_t* served_version = nullptr,
                  RequestTrace* trace = nullptr) {
    const size_t index = IndexFor(user);
    if (trace != nullptr) trace->Stamp(TraceStage::kRoute, MonotonicNowNs());
    return shards_[index]->TopNInto(user, n, exclusions, out, served_version,
                                    trace);
  }

  /// Publishes `path` to every shard in index order. On success
  /// `max_version` (if non-null) receives the highest resulting
  /// snapshot version. On failure the error names the first failing
  /// shard; earlier shards keep the new snapshot, later ones the old.
  Status Publish(const std::string& path, uint64_t* max_version = nullptr);

  /// Attaches each shard's segment of the full store.
  Status AttachStore(const std::shared_ptr<const TopNStore>& store);

  /// Current snapshot version per shard, in shard order.
  std::vector<uint64_t> versions() const;
  uint64_t max_version() const;

  /// Exact merge of the process-global registry and every shard's
  /// series (shards sharing one registry — e.g. all on the global
  /// default — are merged once; a child process is scraped over
  /// METRICSNAP), so nothing is ever double-counted.
  Result<MetricsSnapshot> SnapshotMetrics();

  /// Appends every shard's TRACE lines (see ShardBackend::AppendTraces).
  Status AppendTraces(size_t count, std::string* payload);

  int default_n() const { return default_n_; }
  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  std::string source() const { return shards_[0]->source(); }

 private:
  ShardRouter(std::vector<std::unique_ptr<ShardBackend>> shards,
              int32_t num_users, int32_t num_items, int default_n);

  std::vector<std::unique_ptr<ShardBackend>> shards_;
  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  int default_n_ = 0;
};

}  // namespace ganc

#endif  // GANC_SERVE_SHARD_ROUTER_H_
