// RecommendationService: the in-process online serving API.
//
// The offline layers end at artifacts: a fitted model (.gam) or a whole
// GANC pipeline (.gap) plus the dataset cache (.gdc). This service loads
// (or borrows) that state once as an immutable, versioned snapshot and
// answers individual TopN(user, n, exclusions) requests at low latency:
//
//   request ──► sharded LRU result cache ──► precomputed top-N store
//                        (hit)                    (head users, hit)
//                                                      │ miss
//                                                      ▼
//                            micro-batched live scoring (ScoreBatchInto
//                            blocks of 8 across concurrent requests)
//
// Serving modes:
//   * model mode — requests are answered with the base model's top-N
//     over the user's unrated train items (minus exclusions), selected
//     through the same SelectTopKUnrated kernel as the offline
//     BuildTopN/RecommendAllUsers paths, so a served list is
//     bit-identical to the offline one for the same snapshot (the
//     serving parity suite pins this for all 9 models under concurrent
//     load).
//   * pipeline mode — requests are answered with the GANC-mixed greedy
//     over the pipeline's accuracy scorer, theta, and coverage model,
//     matching GancPipeline::RecommendForUser bit-for-bit (the coverage
//     state is the empty-history snapshot, immutable and shared across
//     requests).
//
// Exclusions are per-request deltas (typically a session overlay's
// consumed items; see serve/session_overlay.h): excluded items are
// masked out of the candidate set at request time, nothing is retrained
// and the snapshot is never mutated.
//
// Thread-safety: TopN is safe from any number of threads. Scoring runs
// either on the micro-batcher's workers (one ScoringContext per worker)
// or, in the unbatched baseline mode, on the calling thread through a
// thread_local context.

#ifndef GANC_SERVE_RECOMMENDATION_SERVICE_H_
#define GANC_SERVE_RECOMMENDATION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "recommender/factor_view.h"
#include "recommender/recommender.h"
#include "serve/micro_batcher.h"
#include "serve/result_cache.h"
#include "serve/serve_metrics.h"
#include "serve/topn_store.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace ganc {

/// Serving knobs.
struct ServiceConfig {
  /// Scoring worker threads behind the micro-batcher.
  int num_workers = 1;
  /// Requests per scoring block (default: the 8-user engine block).
  size_t batch_size = kScoreBatch;
  /// Bounded-wait flush ceiling for partial blocks, microseconds.
  int max_batch_wait_us = 200;
  /// Total LRU result-cache entries (0 disables the cache).
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
  /// false = one-request-at-a-time baseline: no scheduler, scoring runs
  /// on the calling thread (the committed BENCH_serving.json baseline).
  bool micro_batching = true;
  /// List length served when a request passes n = 0.
  int default_n = 10;
  /// Factor-table precision the Load*Service constructors compact the
  /// owned snapshot to after loading (kFp64 = keep the artifact's own
  /// precision). Ignored by the borrowing Create overloads — compact the
  /// model before handing it in.
  FactorPrecision factor_precision = FactorPrecision::kFp64;
  /// LoadModelService opens the model artifact through the mmap
  /// zero-copy path when the format supports it (v3; latent-factor
  /// tables are then served straight off the mapping), with transparent
  /// fallback to the stream loader. Pipelines are stream-only.
  bool mmap_artifacts = true;
  /// Registry the service resolves its instruments from (null = the
  /// process-global registry). A shard hands the same registry to every
  /// replacement snapshot it publishes, so serving counters stay
  /// monotonic across swaps.
  std::shared_ptr<MetricsRegistry> metrics;
  /// Publish-generation label for the domain (novelty/coverage) series:
  /// `{gen="G"}`. 0 is the initially loaded snapshot; ServiceShard
  /// bumps it per successful Publish. Unlike snapshot_version (a
  /// process-global ticket), generations align across shard replicas
  /// and across processes, which is what makes the merged domain series
  /// meaningful.
  uint64_t metrics_generation = 0;
  /// Maintain live novelty/coverage accounting (one bounded popularity
  /// sweep of the train set at service construction).
  bool domain_metrics = true;
  /// Row-payload residency budget for that sweep; <= 0 uses a fixed
  /// modest default (see serve_metrics.cc).
  int64_t domain_sweep_budget_bytes = 0;
};

/// Owns the serving snapshot and the request path.
class RecommendationService {
 public:
  /// Model mode over a borrowed fitted model + train set (both must
  /// outlive the service).
  static Result<std::unique_ptr<RecommendationService>> Create(
      const Recommender& model, const RatingDataset& train,
      ServiceConfig config);

  /// Pipeline mode over a borrowed pipeline (must outlive the service,
  /// as must `train`, which must be the set the pipeline is bound to).
  static Result<std::unique_ptr<RecommendationService>> Create(
      const GancPipeline& pipeline, const RatingDataset& train,
      ServiceConfig config);

  /// Model mode from a .gam artifact (the model is owned by the
  /// service; `train` is borrowed and validated against the artifact's
  /// stored fingerprint by the model's Load).
  static Result<std::unique_ptr<RecommendationService>> LoadModelService(
      const std::string& path, const RatingDataset& train,
      ServiceConfig config);

  /// Pipeline mode from a .gap artifact (owned).
  static Result<std::unique_ptr<RecommendationService>> LoadPipelineService(
      const std::string& path, const RatingDataset& train,
      ServiceConfig config);

  ~RecommendationService();

  RecommendationService(const RecommendationService&) = delete;
  RecommendationService& operator=(const RecommendationService&) = delete;

  /// Answers one request: the top `n` items (n = 0 -> config default)
  /// for `user` among their unrated train items minus `exclusions`,
  /// best-first. Blocking, thread-safe, deterministic: the same
  /// (snapshot, user, n, exclusion set) always yields the same list, no
  /// matter how requests are batched or which thread asks. `trace`
  /// (optional, borrowed for the duration of the call) receives stage
  /// stamps when the request was sampled.
  Status TopNInto(UserId user, int n, std::span<const ItemId> exclusions,
                  std::vector<ItemId>* out, RequestTrace* trace = nullptr);

  /// Allocating convenience wrapper.
  Result<std::vector<ItemId>> TopN(UserId user, int n = 0,
                                   std::span<const ItemId> exclusions = {});

  /// Attaches a precomputed top-N store. The store must match the
  /// snapshot: same train fingerprint, same dimensions, same source
  /// name, and a stored list length >= the length it will be asked for.
  Status AttachStore(std::shared_ptr<const TopNStore> store);

  /// Precomputes the store for `users` at list length `n` through this
  /// service's own live path, so stored lists are exact by construction.
  Result<TopNStore> BuildStore(std::span<const UserId> users, int n);

  /// The snapshot identity carried in every cache key. A service never
  /// mutates its snapshot; a replacement service (new artifact) gets a
  /// new version, so stale entries can never be served across swaps.
  uint64_t snapshot_version() const { return version_; }

  /// Name of the serving source ("PSVD40", "GANC(RSVD, theta^G, Dyn)").
  const std::string& source() const { return source_; }

  int32_t num_users() const { return train_->num_users(); }
  int32_t num_items() const { return num_items_; }

  /// Factor-table precision of the serving snapshot (kFp64 for models
  /// without latent factor tables).
  FactorPrecision factor_precision() const { return factor_precision_; }
  int default_n() const { return config_.default_n; }
  bool micro_batching() const { return config_.micro_batching; }

  /// The registry this service's instruments live in (the configured
  /// one, or the process-global default). Routers dedupe snapshot
  /// merges on this pointer.
  MetricsRegistry* metrics_registry() const {
    return config_.metrics != nullptr ? config_.metrics.get()
                                      : &MetricsRegistry::Global();
  }

  /// Live domain accounting, null when disabled. Tests use the table
  /// accessors to recompute novelty/coverage offline.
  const DomainAccountant* domain_accountant() const { return domain_.get(); }

 private:
  RecommendationService(const RatingDataset& train, ServiceConfig config);

  Status Init(const Recommender* model, const GancPipeline* pipeline);

  /// The scheduler's batch function: one ScoreBatchInto over the block,
  /// then per-request selection.
  void ScoreAndSelect(std::span<BatchRequest* const> batch,
                      ScoringContext& ctx);

  /// Selection for one request from its dense score row.
  void SelectForRequest(const BatchRequest& req,
                        std::span<const double> scores, ScoringContext& ctx);

  /// Live scoring for one request on the calling thread (baseline path
  /// and BuildStore).
  void ScoreOneUnbatched(BatchRequest& req);

  Status ValidateRequest(UserId user, int n,
                         std::span<const ItemId> exclusions) const;

  const RatingDataset* train_;
  ServiceConfig config_;
  uint64_t version_ = 0;
  int32_t num_items_ = 0;
  std::string source_;
  FactorPrecision factor_precision_ = FactorPrecision::kFp64;

  // Snapshot scoring state. Model mode sets model_; pipeline mode sets
  // scorer_/theta_/coverage_.
  const Recommender* model_ = nullptr;
  const AccuracyScorer* scorer_ = nullptr;
  const std::vector<double>* theta_ = nullptr;
  std::unique_ptr<CoverageModel> coverage_;

  // Artifact-loading ctors park ownership here.
  std::unique_ptr<Recommender> owned_model_;
  std::unique_ptr<GancPipeline> owned_pipeline_;

  std::shared_ptr<const TopNStore> store_;
  std::unique_ptr<ServeResultCache> cache_;
  std::unique_ptr<MicroBatcher> batcher_;

  /// Pre-resolved request-path instruments (stable address: the
  /// batcher's config borrows a pointer to this member).
  ServeInstruments instruments_;
  std::unique_ptr<DomainAccountant> domain_;
};

}  // namespace ganc

#endif  // GANC_SERVE_RECOMMENDATION_SERVICE_H_
