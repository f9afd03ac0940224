#include "serve/recommendation_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "core/coverage.h"
#include "core/ganc.h"
#include "recommender/model_io.h"

namespace ganc {

namespace {

// Process-global snapshot version source: every service instance (= one
// immutable snapshot) gets a distinct version, so cache keys can never
// collide across snapshot swaps within a process.
std::atomic<uint64_t> g_next_snapshot_version{1};

}  // namespace

RecommendationService::RecommendationService(const RatingDataset& train,
                                             ServiceConfig config)
    : train_(&train),
      config_(config),
      version_(g_next_snapshot_version.fetch_add(1,
                                                 std::memory_order_relaxed)) {}

RecommendationService::~RecommendationService() = default;

Status RecommendationService::Init(const Recommender* model,
                                   const GancPipeline* pipeline) {
  if (config_.default_n <= 0) {
    return Status::InvalidArgument("default_n must be positive");
  }
  if (config_.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (model != nullptr) {
    if (model->num_items() != train_->num_items()) {
      return Status::InvalidArgument(
          "model is unfitted or its catalog does not match the train set");
    }
    model_ = model;
    source_ = model->name();
    factor_precision_ = model->factor_precision();
  } else {
    // Pipeline mode scores against user profiles and builds a coverage
    // model over the rows up front — a mapped dataset must materialize.
    GANC_RETURN_NOT_OK(train_->EnsureResident());
    scorer_ = &pipeline->scorer();
    theta_ = &pipeline->theta();
    if (theta_->size() != static_cast<size_t>(train_->num_users())) {
      return Status::InvalidArgument(
          "pipeline theta does not match the train set");
    }
    // The empty-history coverage model RecommendForUser scores against:
    // nothing Observes it, so concurrent requests can share it.
    coverage_ = &pipeline->coverage();
    source_ = pipeline->name();
    factor_precision_ = pipeline->factor_precision();
  }
  num_items_ = train_->num_items();
  MetricsRegistry& registry = *metrics_registry();
  instruments_ = ServeInstruments::Resolve(registry);
  if (config_.domain_metrics) {
    Result<std::unique_ptr<DomainAccountant>> acct = DomainAccountant::Create(
        *train_, registry, config_.metrics_generation);
    if (!acct.ok()) return acct.status();
    domain_ = std::move(acct).value();
  }
  if (config_.cache_capacity > 0) {
    cache_ = std::make_unique<ServeResultCache>(config_.cache_capacity);
  }
  if (config_.micro_batching) {
    MicroBatcherConfig mb;
    mb.num_workers = static_cast<size_t>(config_.num_workers);
    mb.batch_size = kScoreBatch;
    mb.max_batch_wait =
        std::chrono::microseconds(std::max(config_.max_batch_wait_us, 0));
    mb.metrics = &instruments_;
    batcher_ = std::make_unique<MicroBatcher>(
        [this](std::span<BatchRequest* const> batch, ScoringContext& ctx) {
          ScoreAndSelect(batch, ctx);
        },
        mb);
  }
  return Status::OK();
}

Result<std::unique_ptr<RecommendationService>> RecommendationService::Create(
    const Recommender& model, const RatingDataset& train,
    ServiceConfig config) {
  std::unique_ptr<RecommendationService> service(
      new RecommendationService(train, config));
  GANC_RETURN_NOT_OK(service->Init(&model, nullptr));
  return service;
}

Result<std::unique_ptr<RecommendationService>> RecommendationService::Create(
    const GancPipeline& pipeline, const RatingDataset& train,
    ServiceConfig config) {
  std::unique_ptr<RecommendationService> service(
      new RecommendationService(train, config));
  GANC_RETURN_NOT_OK(service->Init(nullptr, &pipeline));
  return service;
}

Result<std::unique_ptr<RecommendationService>>
RecommendationService::LoadModelService(const std::string& path,
                                        const RatingDataset& train,
                                        ServiceConfig config) {
  Result<std::unique_ptr<Recommender>> model = LoadModelFile(path, &train);
  if (!model.ok()) return model.status();
  std::unique_ptr<RecommendationService> service(
      new RecommendationService(train, config));
  service->owned_model_ = std::move(model).value();
  if (config.factor_precision != FactorPrecision::kFp64) {
    GANC_RETURN_NOT_OK(
        service->owned_model_->SetFactorPrecision(config.factor_precision));
  }
  GANC_RETURN_NOT_OK(service->Init(service->owned_model_.get(), nullptr));
  return service;
}

Result<std::unique_ptr<RecommendationService>>
RecommendationService::LoadPipelineService(const std::string& path,
                                           const RatingDataset& train,
                                           ServiceConfig config) {
  Result<std::unique_ptr<GancPipeline>> pipeline =
      GancPipeline::LoadFile(path, train, /*num_threads=*/1);
  if (!pipeline.ok()) return pipeline.status();
  std::unique_ptr<RecommendationService> service(
      new RecommendationService(train, config));
  service->owned_pipeline_ = std::move(pipeline).value();
  if (config.factor_precision != FactorPrecision::kFp64) {
    GANC_RETURN_NOT_OK(
        service->owned_pipeline_->SetFactorPrecision(config.factor_precision));
  }
  GANC_RETURN_NOT_OK(service->Init(nullptr, service->owned_pipeline_.get()));
  return service;
}

Status RecommendationService::ValidateRequest(
    UserId user, int n, std::span<const ItemId> exclusions) const {
  if (user < 0 || user >= train_->num_users()) {
    return Status::InvalidArgument("user id " + std::to_string(user) +
                                   " out of range");
  }
  if (n <= 0) {
    return Status::InvalidArgument("n must be positive");
  }
  for (const ItemId i : exclusions) {
    if (i < 0 || i >= num_items_) {
      return Status::InvalidArgument("excluded item id " + std::to_string(i) +
                                     " out of range");
    }
  }
  return Status::OK();
}

Status RecommendationService::TopNInto(UserId user, int n,
                                       std::span<const ItemId> exclusions,
                                       std::vector<ItemId>* out,
                                       RequestTrace* trace) {
  const uint64_t start_ns = MonotonicNowNs();
  if (n == 0) n = config_.default_n;
  if (const Status valid = ValidateRequest(user, n, exclusions);
      !valid.ok()) {
    instruments_.errors->Increment();
    if (trace != nullptr) trace->outcome = 'e';
    return valid;
  }
  // The acceptance identity the metrics tests pin: every request
  // counted here resolves through exactly one of the cache / store /
  // live exits below, so requests == cache_hits + store_hits +
  // live_scored in every topology (errors are counted separately and
  // never reach this line).
  instruments_.requests->Increment();
  if (trace != nullptr) trace->user = user;
  const auto record_latency = [&](char outcome) {
    instruments_.request_ns->Observe(MonotonicNowNs() - start_ns);
    if (domain_ != nullptr) domain_->Record(*out);
    if (trace != nullptr) trace->outcome = outcome;
  };

  // Canonicalize the exclusion set so equal sets share one cache entry
  // and downstream selection can binary-search / set-subtract.
  std::vector<ItemId> canonical(exclusions.begin(), exclusions.end());
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());

  const ServeResultCache::Key key{user, n, ExclusionFingerprint(canonical),
                                  version_};
  if (cache_ != nullptr) {
    const uint64_t probe_ns = MonotonicNowNs();
    const bool hit = cache_->Lookup(key, out);
    const uint64_t probed_ns = MonotonicNowNs();
    instruments_.cache_probe_ns->Observe(probed_ns - probe_ns);
    if (trace != nullptr) trace->Stamp(TraceStage::kCacheProbe, probed_ns);
    if (hit) {
      instruments_.cache_hits->Increment();
      record_latency('c');
      return Status::OK();
    }
    instruments_.cache_misses->Increment();
  }

  // The store holds default-request lists: no exclusion deltas, length
  // up to its build-time n. A stored list is best-first, so its prefix
  // answers any shorter request exactly; a list shorter than requested
  // means the user's unrated candidates ran out, so the whole list is
  // already the full answer.
  if (store_ != nullptr && canonical.empty() && n <= store_->top_n()) {
    const uint64_t probe_ns = MonotonicNowNs();
    const std::span<const ItemId> list = store_->ListFor(user);
    const uint64_t probed_ns = MonotonicNowNs();
    instruments_.store_probe_ns->Observe(probed_ns - probe_ns);
    if (trace != nullptr) trace->Stamp(TraceStage::kStoreProbe, probed_ns);
    if (!list.empty()) {
      out->assign(list.begin(),
                  list.begin() + static_cast<ptrdiff_t>(std::min(
                                     list.size(), static_cast<size_t>(n))));
      instruments_.store_hits->Increment();
      record_latency('s');
      return Status::OK();
    }
  }

  // First live-scored request against a mapped snapshot pays the
  // one-time O(nnz) row validation + materialization; cache and store
  // hits above never do, which is what keeps a store-backed cold start
  // O(users) no matter the dataset size.
  GANC_RETURN_NOT_OK(train_->EnsureResident());

  BatchRequest req;
  req.user = user;
  req.n = n;
  req.exclusions = canonical;
  req.out = out;
  req.trace = trace;
  const uint64_t enqueue_ns = MonotonicNowNs();
  if (trace != nullptr) trace->Stamp(TraceStage::kEnqueue, enqueue_ns);
  if (batcher_ != nullptr) {
    if (const Status scored = batcher_->Submit(req); !scored.ok()) {
      instruments_.errors->Increment();
      if (trace != nullptr) trace->outcome = 'e';
      return scored;
    }
  } else {
    ScoreOneUnbatched(req);
    if (!req.status.ok()) {
      instruments_.errors->Increment();
      if (trace != nullptr) trace->outcome = 'e';
      return req.status;
    }
  }
  instruments_.score_ns->Observe(MonotonicNowNs() - enqueue_ns);
  instruments_.live_scored->Increment();
  if (cache_ != nullptr) cache_->Insert(key, *out);
  record_latency('l');
  return Status::OK();
}

Result<std::vector<ItemId>> RecommendationService::TopN(
    UserId user, int n, std::span<const ItemId> exclusions) {
  std::vector<ItemId> out;
  GANC_RETURN_NOT_OK(TopNInto(user, n, exclusions, &out));
  return out;
}

void RecommendationService::ScoreAndSelect(
    std::span<BatchRequest* const> batch, ScoringContext& ctx) {
  const size_t ni = static_cast<size_t>(num_items_);
  std::vector<UserId>& users = ctx.BatchUsers();
  users.clear();
  for (const BatchRequest* r : batch) users.push_back(r->user);
  const std::span<double> scores = ctx.BatchScores(users.size() * ni);
  std::vector<RowScale>& scales = ctx.RowScales();
  const uint64_t kernel_ns = MonotonicNowNs();
  if (model_ != nullptr) {
    model_->ScoreBatchInto(users, scores);
  } else {
    scales.resize(users.size());
    scorer_->ScoreBatchScaledInto(users, scores, scales);
  }
  instruments_.kernel_ns->Observe(MonotonicNowNs() - kernel_ns);
  for (size_t b = 0; b < batch.size(); ++b) {
    const uint64_t select_ns = MonotonicNowNs();
    SelectForRequest(*batch[b],
                     std::span<const double>(scores.subspan(b * ni, ni)),
                     model_ != nullptr ? RowScale{} : scales[b], ctx);
    const uint64_t selected_ns = MonotonicNowNs();
    instruments_.select_ns->Observe(selected_ns - select_ns);
    if (batch[b]->trace != nullptr) {
      batch[b]->trace->Stamp(TraceStage::kScore, selected_ns);
    }
  }
}

void RecommendationService::SelectForRequest(const BatchRequest& req,
                                             std::span<const double> scores,
                                             RowScale scale,
                                             ScoringContext& ctx) {
  std::vector<ItemId>& out = *req.out;
  if (model_ != nullptr) {
    // Model mode: the offline paths' own selection kernel, with the
    // request's exclusions folded into its mask — served lists are
    // bit-identical to BuildTopN's because this *is* BuildTopN's code.
    const std::vector<ScoredItem>& top =
        SelectTopKUnrated(scores, *train_, req.user,
                          static_cast<size_t>(req.n), ctx, req.exclusions);
    out.clear();
    out.reserve(top.size());
    for (const ScoredItem& s : top) out.push_back(s.item);
    return;
  }
  // Pipeline mode: GANC's selection kernel over the raw accuracy row and
  // its scale — the exact RecommendForUser computation, with the
  // request's exclusions folded into the kernel's mask.
  const std::vector<ScoredItem>& top = SelectGancTopKUnrated(
      scores, scale, (*theta_)[static_cast<size_t>(req.user)],
      coverage_->Row(req.user, ctx), *train_, req.user,
      static_cast<size_t>(req.n), ctx, req.exclusions);
  out.clear();
  out.reserve(top.size());
  for (const ScoredItem& s : top) out.push_back(s.item);
}

void RecommendationService::ScoreOneUnbatched(BatchRequest& req) {
  // One-request-at-a-time baseline: same scoring and selection code as
  // the scheduler, batch width 1, on the calling thread. thread_local
  // keeps the one-context-per-thread ownership contract.
  static thread_local ScoringContext ctx;
  BatchRequest* one[1] = {&req};
  ScoreAndSelect(std::span<BatchRequest* const>(one), ctx);
}

Status RecommendationService::AttachStore(
    std::shared_ptr<const TopNStore> store) {
  if (store == nullptr) {
    return Status::InvalidArgument("store must be non-null");
  }
  if (store->train_fingerprint() != train_->Fingerprint()) {
    return Status::InvalidArgument(
        "top-N store was built against different train data (fingerprint "
        "mismatch)");
  }
  if (store->num_users() != train_->num_users() ||
      store->num_items() != num_items_) {
    return Status::InvalidArgument(
        "top-N store dimensions do not match the serving snapshot");
  }
  if (store->source() != source_) {
    return Status::InvalidArgument("top-N store was built from '" +
                                   store->source() + "', serving '" + source_ +
                                   "'");
  }
  store_ = std::move(store);
  return Status::OK();
}

Result<TopNStore> RecommendationService::BuildStore(
    std::span<const UserId> users, int n) {
  if (n <= 0) {
    return Status::InvalidArgument("store list length must be positive");
  }
  GANC_RETURN_NOT_OK(train_->EnsureResident());  // live path below
  std::vector<std::pair<UserId, std::vector<ItemId>>> lists;
  lists.reserve(users.size());
  for (const UserId u : users) {
    GANC_RETURN_NOT_OK(ValidateRequest(u, n, {}));
    BatchRequest req;
    req.user = u;
    req.n = n;
    std::vector<ItemId> list;
    req.out = &list;
    ScoreOneUnbatched(req);
    GANC_RETURN_NOT_OK(req.status);
    lists.emplace_back(u, std::move(list));
  }
  return TopNStore::FromLists(train_->num_users(), num_items_, n,
                              train_->Fingerprint(), source_, lists);
}

}  // namespace ganc
