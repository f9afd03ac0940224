#include "serve/service_shard.h"

#include <algorithm>
#include <utility>

namespace ganc {

namespace {

Result<std::unique_ptr<RecommendationService>> LoadSnapshot(
    SnapshotKind kind, const std::string& path, const RatingDataset& train,
    const ServiceConfig& config) {
  switch (kind) {
    case SnapshotKind::kModel:
      return RecommendationService::LoadModelService(path, train, config);
    case SnapshotKind::kPipeline:
      return RecommendationService::LoadPipelineService(path, train, config);
  }
  return Status::InvalidArgument("unknown snapshot kind");
}

Status ValidateSpec(const ShardSpec& spec) {
  if (spec.num_shards == 0) {
    return Status::InvalidArgument("shard count must be >= 1");
  }
  if (spec.index >= spec.num_shards) {
    return Status::InvalidArgument(
        "shard index " + std::to_string(spec.index) + " out of range for " +
        std::to_string(spec.num_shards) + " shards");
  }
  return Status::OK();
}

}  // namespace

ServiceShard::ServiceShard(std::unique_ptr<RecommendationService> service,
                           SnapshotKind kind, const RatingDataset& train,
                           ShardSpec spec, ServiceConfig config)
    : kind_(kind),
      train_(&train),
      spec_(spec),
      config_(config),
      num_users_(train.num_users()),
      service_(std::shared_ptr<RecommendationService>(std::move(service))) {}

Result<std::unique_ptr<ServiceShard>> ServiceShard::Load(
    SnapshotKind kind, const std::string& path, const RatingDataset& train,
    ShardSpec spec, ServiceConfig config) {
  GANC_RETURN_NOT_OK(ValidateSpec(spec));
  Result<std::unique_ptr<RecommendationService>> service =
      LoadSnapshot(kind, path, train, config);
  if (!service.ok()) return service.status();
  return std::unique_ptr<ServiceShard>(new ServiceShard(
      std::move(service).value(), kind, train, spec, config));
}

Result<std::unique_ptr<ServiceShard>> ServiceShard::Adopt(
    std::unique_ptr<RecommendationService> service, SnapshotKind kind,
    const RatingDataset& train, ShardSpec spec, ServiceConfig config) {
  GANC_RETURN_NOT_OK(ValidateSpec(spec));
  if (service == nullptr) {
    return Status::InvalidArgument("cannot adopt a null service");
  }
  return std::unique_ptr<ServiceShard>(
      new ServiceShard(std::move(service), kind, train, spec, config));
}

Status ServiceShard::TopNInto(UserId user, int n,
                              std::span<const ItemId> exclusions,
                              std::vector<ItemId>* out,
                              uint64_t* served_version, RequestTrace* trace) {
  // Pin once: the whole request — ownership gate, scoring, version
  // attribution — runs against this snapshot even if a Publish swaps
  // the shard pointer mid-flight.
  const std::shared_ptr<RecommendationService> service = Pin();
  if (served_version != nullptr) *served_version = service->snapshot_version();
  if (trace != nullptr) {
    trace->shard = static_cast<int>(spec_.index);
    trace->version = service->snapshot_version();
  }
  // Misrouted in-range users are this shard's error; out-of-range ids
  // fall through so the rejection text matches an unsharded server.
  if (user >= 0 && user < num_users_ && !OwnsUser(user)) {
    return Status::InvalidArgument(
        "user " + std::to_string(user) + " not owned by shard " +
        std::to_string(spec_.index) + "/" + std::to_string(spec_.num_shards));
  }
  return service->TopNInto(user, n, exclusions, out, trace);
}

Status ServiceShard::Publish(const std::string& path) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  MetricsRegistry& registry = config_.metrics != nullptr
                                  ? *config_.metrics
                                  : MetricsRegistry::Global();
  const uint64_t start_ns = MonotonicNowNs();
  // Load outside the request path: requests keep hitting the old
  // snapshot until the exchange below. The artifact loader validates
  // the dataset fingerprint, so a snapshot trained against a different
  // split is rejected here with the old service untouched. The
  // replacement inherits this shard's registry (counters stay
  // monotonic across the swap) under the next publish generation, so
  // its domain series are distinguishable from the old snapshot's.
  ServiceConfig fresh_config = config_;
  fresh_config.metrics_generation = published_ + 1;
  Result<std::unique_ptr<RecommendationService>> fresh =
      LoadSnapshot(kind_, path, *train_, fresh_config);
  if (!fresh.ok()) {
    registry
        .GetCounter("serve_publish_rejects_total",
                    "Failed snapshot publishes (old snapshot kept).")
        ->Increment();
    return fresh.status();
  }
  service_.exchange(
      std::shared_ptr<RecommendationService>(std::move(fresh).value()),
      std::memory_order_acq_rel);
  ++published_;
  registry
      .GetCounter("serve_publishes_total",
                  "Successful zero-downtime snapshot swaps.")
      ->Increment();
  registry
      .GetHistogram("serve_publish_ns",
                    "Publish latency (artifact load + swap), nanoseconds.")
      ->Observe(MonotonicNowNs() - start_ns);
  return Status::OK();
}

Status ServiceShard::AttachStore(
    const std::shared_ptr<const TopNStore>& store) {
  if (store == nullptr) {
    return Status::InvalidArgument("cannot attach a null store");
  }
  const std::shared_ptr<RecommendationService> service = Pin();
  if (spec_.num_shards <= 1) {
    return service->AttachStore(store);
  }
  // Filter the full store down to owned users. Keeping the original
  // dimensions/fingerprint/source means the service applies exactly the
  // same validity checks as an unsharded attach.
  std::vector<std::pair<UserId, std::vector<ItemId>>> lists;
  for (int32_t u = 0; u < store->num_users(); ++u) {
    if (!OwnsUser(u)) continue;
    const std::span<const ItemId> list = store->ListFor(u);
    if (list.empty()) continue;
    lists.emplace_back(u, std::vector<ItemId>(list.begin(), list.end()));
  }
  Result<TopNStore> segment = TopNStore::FromLists(
      store->num_users(), store->num_items(), store->top_n(),
      store->train_fingerprint(), store->source(), lists);
  if (!segment.ok()) return segment.status();
  return service->AttachStore(
      std::make_shared<const TopNStore>(std::move(segment).value()));
}

Status ServiceShard::MergeMetricsInto(
    MetricsSnapshot* snap, std::vector<const MetricsRegistry*>* merged) {
  const MetricsRegistry* registry = metrics_registry();
  if (std::find(merged->begin(), merged->end(), registry) != merged->end()) {
    return Status::OK();
  }
  merged->push_back(registry);
  snap->MergeFrom(registry->Snapshot());
  return Status::OK();
}

}  // namespace ganc
