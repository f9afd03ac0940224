// GancPipeline: the one-call public API.
//
// The decomposed API (fit a Recommender, compute a preference vector,
// assemble Ganc) is what the benches and research code use; downstream
// services usually want the whole paper pipeline behind one object:
//
//   auto pipeline = GancPipeline::Create(
//       std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 100}),
//       train, {});
//   auto topn = pipeline->RecommendAll();
//
// The pipeline owns the base recommender, fits it if needed, learns the
// configured theta model, and runs GANC with the configured coverage
// recommender. The train set is borrowed and must outlive the pipeline.

#ifndef GANC_CORE_PIPELINE_H_
#define GANC_CORE_PIPELINE_H_

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/accuracy_scorer.h"
#include "core/ganc.h"
#include "core/preference.h"
#include "data/dataset.h"
#include "data/longtail.h"
#include "recommender/recommender.h"
#include "util/status.h"

namespace ganc {

/// End-to-end configuration for GancPipeline.
struct PipelineConfig {
  PreferenceModel theta_model = PreferenceModel::kGeneralized;
  CoverageKind coverage = CoverageKind::kDyn;
  int top_n = 5;
  int sample_size = 500;
  uint64_t seed = 42;
  /// Use the top-N indicator accuracy adapter (the paper's Pop adapter)
  /// instead of per-user min-max normalized scores.
  bool indicator_accuracy = false;
  /// Fit the base recommender inside Create (set false when it is
  /// already fitted on `train`).
  bool fit_base = true;
  /// Constant for PreferenceModel::kConstant.
  double constant_theta = 0.5;
  /// Optional pool for the parallel phases.
  ThreadPool* pool = nullptr;
  /// When `pool` is null, the pipeline owns a worker pool of this many
  /// threads for the parallel phases: 1 = run serially (no pool),
  /// 0 = hardware concurrency. Output is byte-identical either way.
  int num_threads = 1;
};

/// Owns the assembled paper pipeline.
class GancPipeline {
 public:
  /// Builds the pipeline: (optionally) fits `base` on `train`, learns the
  /// theta model, and wires the GANC components. `train` is borrowed.
  static Result<std::unique_ptr<GancPipeline>> Create(
      std::unique_ptr<Recommender> base, const RatingDataset& train,
      PipelineConfig config);

  /// Serializes the pipeline's offline state — hyper-parameters, the
  /// learned theta vector, the train set's long-tail/coverage statistics,
  /// and the fitted base model's own artifact — as one versioned binary
  /// artifact (docs/FORMATS.md). Together with the binary dataset cache
  /// this makes the whole train -> serve cycle restartable: a serving
  /// process calls Load and skips base-model training and theta learning.
  Status Save(std::ostream& os) const;

  /// Save to a file path (overwrites).
  Status SaveFile(const std::string& path) const;

  /// Restores a pipeline saved by Save, rebinding it to `train` (which
  /// must be the dataset the pipeline was trained on: user/item counts
  /// are validated, and it must outlive the pipeline). `num_threads`
  /// configures the restored pipeline's worker pool exactly like
  /// PipelineConfig::num_threads (it is runtime state, not part of the
  /// artifact). RecommendAll output is bit-identical to the saved
  /// pipeline's.
  static Result<std::unique_ptr<GancPipeline>> Load(std::istream& is,
                                                    const RatingDataset& train,
                                                    int num_threads = 1);

  /// Load from a file path. The file is mapped only while LoadFile
  /// runs: theta and the tail statistics are copied out, and the
  /// embedded model is copied once into a buffer its tables borrow.
  static Result<std::unique_ptr<GancPipeline>> LoadFile(
      const std::string& path, const RatingDataset& train,
      int num_threads = 1);

  /// Runs GANC over every user's unrated train items.
  Result<TopNCollection> RecommendAll() const;

  /// Top-N for a single user (same mixing, user-local greedy; with Dyn
  /// coverage this scores against an empty recommendation history).
  std::vector<ItemId> RecommendForUser(UserId u) const;

  /// The learned per-user preferences.
  const std::vector<double>& theta() const { return theta_; }

  /// The configured recommendation list length.
  int top_n() const { return config_.top_n; }

  /// Long-tail/coverage statistics of the train set, computed at build
  /// time and carried in the pipeline artifact for downstream reporting.
  const LongTailInfo& tail() const { return tail_; }

  /// The owned base recommender.
  const Recommender& base() const { return *base_; }

  /// Compacts the base model's factor tables to `p` (fp64 models only;
  /// see Recommender::SetFactorPrecision). Scoring through the pipeline
  /// picks up the new precision immediately.
  Status SetFactorPrecision(FactorPrecision p) {
    return base_->SetFactorPrecision(p);
  }
  FactorPrecision factor_precision() const {
    return base_->factor_precision();
  }

  /// The assembled accuracy scorer (the base model behind the configured
  /// normalization adapter). The serving layer batches request scoring
  /// through this instead of re-deriving the adapter choice.
  const AccuracyScorer& scorer() const { return *scorer_; }

  /// The configured coverage recommender kind and the seed it is built
  /// with (RecommendationService rebuilds the per-request coverage model
  /// from these, matching RecommendForUser exactly).
  CoverageKind coverage_kind() const { return config_.coverage; }
  uint64_t seed() const { return config_.seed; }

  /// "GANC(<base>, <theta>, <coverage>)".
  std::string name() const;

 private:
  GancPipeline(std::unique_ptr<Recommender> base, const RatingDataset* train,
               PipelineConfig config, std::vector<double> theta,
               LongTailInfo tail, std::unique_ptr<ThreadPool> owned_pool);

  /// The one pipeline loader, over either kind of artifact bytes.
  static Result<std::unique_ptr<GancPipeline>> FromArtifact(
      ArtifactReader& r, const RatingDataset& train, int num_threads);

  /// The worker pool `config` asks the pipeline to own (null when a
  /// caller pool is set or num_threads == 1). Built before base-model
  /// fitting so pool-aware fits (the KNN similarity sweeps) use it too.
  static std::unique_ptr<ThreadPool> MakeOwnedPool(const PipelineConfig& c);

  std::unique_ptr<Recommender> base_;
  const RatingDataset* train_;
  PipelineConfig config_;
  std::vector<double> theta_;
  LongTailInfo tail_;
  std::unique_ptr<AccuracyScorer> scorer_;
  std::unique_ptr<Ganc> ganc_;
  /// RecommendForUser's coverage model, built once: it is never
  /// Observed, so concurrent const calls can share it.
  std::unique_ptr<CoverageModel> coverage_;
  std::unique_ptr<ThreadPool> owned_pool_;  // when config_.num_threads != 1
};

}  // namespace ganc

#endif  // GANC_CORE_PIPELINE_H_
