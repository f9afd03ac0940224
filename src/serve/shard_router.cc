#include "serve/shard_router.h"

#include <iterator>
#include <utility>

namespace ganc {

namespace {

// Re-wraps `s` with a context prefix, preserving its code (the
// Status(code, msg) constructor is private by design).
Status Prefixed(const Status& s, const std::string& prefix) {
  const std::string msg = prefix + s.message();
  switch (s.code()) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kNotFound:
      return Status::NotFound(msg);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(msg);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(msg);
    case StatusCode::kIOError:
      return Status::IOError(msg);
    case StatusCode::kNotImplemented:
      return Status::NotImplemented(msg);
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(msg);
}

}  // namespace

ShardRouter::ShardRouter(std::vector<std::unique_ptr<ShardBackend>> shards,
                         int32_t num_users, int32_t num_items, int default_n)
    : shards_(std::move(shards)),
      num_users_(num_users),
      num_items_(num_items),
      default_n_(default_n) {}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Load(
    SnapshotKind kind, const std::string& path, const RatingDataset& train,
    size_t num_shards, ServiceConfig config) {
  if (num_shards == 0) {
    return Status::InvalidArgument("shard count must be >= 1");
  }
  std::vector<std::unique_ptr<ShardBackend>> shards;
  shards.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    Result<std::unique_ptr<ServiceShard>> shard = ServiceShard::Load(
        kind, path, train, ShardSpec{i, num_shards}, config);
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard).value());
  }
  return std::unique_ptr<ShardRouter>(
      new ShardRouter(std::move(shards), train.num_users(), train.num_items(),
                      config.default_n));
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::FromShards(
    std::vector<std::unique_ptr<ServiceShard>> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i] == nullptr) {
      return Status::InvalidArgument("null shard at position " +
                                     std::to_string(i));
    }
    const ShardSpec spec = shards[i]->spec();
    if (spec.index != i || spec.num_shards != shards.size()) {
      return Status::InvalidArgument(
          "shard at position " + std::to_string(i) + " has spec " +
          std::to_string(spec.index) + "/" + std::to_string(spec.num_shards) +
          ", expected " + std::to_string(i) + "/" +
          std::to_string(shards.size()));
    }
  }
  const int32_t num_users = shards[0]->num_users();
  const int32_t num_items = shards[0]->num_items();
  const int default_n = shards[0]->default_n();
  return std::unique_ptr<ShardRouter>(
      new ShardRouter(std::vector<std::unique_ptr<ShardBackend>>(
                          std::make_move_iterator(shards.begin()),
                          std::make_move_iterator(shards.end())),
                      num_users, num_items, default_n));
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::FromBackends(
    std::vector<std::unique_ptr<ShardBackend>> backends, int32_t num_users,
    int32_t num_items, int default_n) {
  if (backends.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  for (size_t i = 0; i < backends.size(); ++i) {
    if (backends[i] == nullptr) {
      return Status::InvalidArgument("null shard at position " +
                                     std::to_string(i));
    }
  }
  return std::unique_ptr<ShardRouter>(new ShardRouter(
      std::move(backends), num_users, num_items, default_n));
}

Status ShardRouter::Publish(const std::string& path, uint64_t* max_version) {
  uint64_t max_v = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Status status = shards_[i]->Publish(path);
    if (!status.ok()) {
      return Prefixed(status, "publish failed on shard " + std::to_string(i) +
                                  "/" + std::to_string(shards_.size()) + ": ");
    }
    const uint64_t v = shards_[i]->version();
    if (v > max_v) max_v = v;
  }
  if (max_version != nullptr) *max_version = max_v;
  return Status::OK();
}

Status ShardRouter::AttachStore(
    const std::shared_ptr<const TopNStore>& store) {
  for (auto& shard : shards_) {
    GANC_RETURN_NOT_OK(shard->AttachStore(store));
  }
  return Status::OK();
}

std::vector<uint64_t> ShardRouter::versions() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->version());
  return out;
}

uint64_t ShardRouter::max_version() const {
  uint64_t max_v = 0;
  for (const auto& shard : shards_) {
    const uint64_t v = shard->version();
    if (v > max_v) max_v = v;
  }
  return max_v;
}

Result<MetricsSnapshot> ShardRouter::SnapshotMetrics() {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::vector<const MetricsRegistry*> merged{&MetricsRegistry::Global()};
  for (const auto& shard : shards_) {
    GANC_RETURN_NOT_OK(shard->MergeMetricsInto(&snap, &merged));
  }
  return snap;
}

Status ShardRouter::AppendTraces(size_t count, std::string* payload) {
  for (const auto& shard : shards_) {
    GANC_RETURN_NOT_OK(shard->AppendTraces(count, payload));
  }
  return Status::OK();
}

}  // namespace ganc
