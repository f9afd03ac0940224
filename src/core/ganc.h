// GANC: the generic re-ranking framework (Section III) and its OSLG
// optimizer (Section III-C, Algorithm 1).
//
// A GANC variant is the template GANC(ARec, theta, CRec):
//   * ARec  — an AccuracyScorer giving a(i) in [0, 1] per user,
//   * theta — a per-user long-tail preference vector in [0, 1],
//   * CRec  — a CoverageKind (Rand / Stat / Dyn).
// Each user's value function is
//   v_u(P_u) = (1 - theta_u) * a(P_u) + theta_u * c(P_u),
// and the framework maximizes sum_u v_u(P_u) subject to |P_u| = N.
//
// With Rand/Stat the objective is modular across users, so the optimum is
// an independent per-user top-N by mixed score. With Dyn the coverage gain
// of an item diminishes as it is recommended, making the objective
// submodular monotone under a partition matroid; OSLG approximates the
// locally greedy 1/2-approximation scalably by
//   (1) running the sequential greedy on a KDE-proportional sample of S
//       users, visited in increasing theta order, and
//   (2) assigning every remaining user in parallel using the coverage
//       state snapshot of their nearest-theta sampled user.
//
// Every GANC list, in both phases, in the modular case, in
// GancPipeline::RecommendForUser and in served pipeline mode, comes from
// one selection kernel, SelectGancTopKUnrated, which reads the base
// model's raw score row with its min-max scale and a dense coverage row.

#ifndef GANC_CORE_GANC_H_
#define GANC_CORE_GANC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/accuracy_scorer.h"
#include "core/coverage.h"
#include "data/dataset.h"
#include "recommender/scoring_context.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/top_k.h"

namespace ganc {

/// One top-N set per user.
using TopNCollection = std::vector<std::vector<ItemId>>;

/// Knobs for Ganc::RecommendAll.
struct GancConfig {
  int top_n = 5;
  /// Sequential-phase sample size S for OSLG with Dyn coverage.
  /// sample_size <= 0 or >= |U| runs the full (unsampled) locally greedy.
  int sample_size = 500;
  uint64_t seed = 5;
  /// Ablation switches for OSLG's two modifications (DESIGN.md A1):
  /// draw the sample proportionally to KDE(theta) instead of uniformly...
  bool kde_sampling = true;
  /// ...and visit sampled users in increasing theta instead of arbitrary
  /// (shuffled) order.
  bool order_by_theta = true;
  /// Optional pool for the parallel phase, the Rand/Stat per-user loop,
  /// and the grid densities of OSLG's binned KDE sample (Algorithm 1,
  /// line 2). Every use keeps the serial arithmetic of each user and each
  /// grid point, so the collection is bit-identical with or without a
  /// pool and for every pool size.
  ThreadPool* pool = nullptr;
};

/// OK when every theta entry is finite and in [0, 1], the range the
/// mixed score and SelectGancTopKUnrated's skip bound assume.
Status CheckThetaRange(std::span<const double> theta);

/// The assembled framework. Borrows the scorer; copy of theta is taken.
class Ganc {
 public:
  /// `accuracy` must outlive this object. theta must have one entry in
  /// [0, 1] per user of the train set passed to RecommendAll.
  Ganc(const AccuracyScorer* accuracy, std::vector<double> theta,
       CoverageKind coverage);

  /// Builds the full top-N collection over each user's unrated train items.
  Result<TopNCollection> RecommendAll(const RatingDataset& train,
                                      const GancConfig& config) const;

  /// "GANC(ARec, theta, CRec)" template string for reports.
  std::string Name(const std::string& theta_name) const;

  CoverageKind coverage() const { return coverage_; }
  const std::vector<double>& theta() const { return theta_; }

 private:
  TopNCollection RunModular(const RatingDataset& train,
                            const GancConfig& config) const;
  Result<TopNCollection> RunOslg(const RatingDataset& train,
                                 const GancConfig& config) const;

  const AccuracyScorer* accuracy_;
  std::vector<double> theta_;
  CoverageKind coverage_;
};

/// Items per block of SelectGancTopKUnrated's prefilter.
inline constexpr size_t kGancBlock = 8;

/// SelectGancTopKUnrated's prefilter over the kGancBlock items at `raw`
/// and `coverage`: true when every item's bound
///   p(i) = (1 - theta) * ((raw_i - lo) * inv_range) + theta * coverage_i
/// lies below `cut`. A NaN bound is never below. Exposed for tests.
bool GancBlockBelow(const double* raw, const double* coverage, double lo,
                    double inv_range, double theta, double cut);

/// GANC's selection for one user: the k best items `u` has not rated in
/// `train` (and not in `exclusions`: ids in range, as SelectTopKUnrated)
/// under the mixed score
///   e(i) = (1 - theta) * ((raw_i - scale.lo) / scale.range)
///          + theta * coverage_i,
/// best first, into ctx.TopK(), which it returns. `raw` and `scale` come
/// from AccuracyScorer::ScoreBatchScaledInto, so the normalized accuracy
/// is never written; `coverage` is CoverageModel::Row, values in [0, 1].
///
/// Items are scanned in ascending id order, in blocks of kGancBlock. Once
/// k items are held, a block is skipped when GancBlockBelow puts every
/// bound below worst - 2^-40. For a finite row with a positive finite
/// range and theta in [0, 1], e(i) and p(i) lie in [0, 1] up to rounding
/// and differ by less than 2e-15, so a skipped item would have been
/// rejected. Any other row, and any NaN bound, runs without skipping.
/// Every other item gets the exact e(i) and the reject test and
/// insertion of ScanSelectBestInto, so the list and its scores, ties,
/// signed zeros and NaNs included, are those of selecting over the
/// normalized row and the ascending candidate list. When UseScanSelect(k, candidates) is false
/// the exact scores are materialized for PartialSelectBest instead.
/// Uses ctx.Flags() and ctx.TopK().
std::vector<ScoredItem>& SelectGancTopKUnrated(
    std::span<const double> raw, RowScale scale, double theta,
    std::span<const double> coverage, const RatingDataset& train, UserId u,
    size_t k, ScoringContext& ctx, std::span<const ItemId> exclusions = {});

/// Aggregate objective value of a collection (Appendix B definition):
/// sum_u (1-theta_u) a(P_u) + theta_u sum_{i in P_u} 1/sqrt(1 + f_i^P)
/// for Dyn, with f_i^P the total recommendation count of i in P. For
/// Rand/Stat the coverage term uses the respective static score.
double CollectionValue(const AccuracyScorer& accuracy,
                       const std::vector<double>& theta, CoverageKind kind,
                       const RatingDataset& train, const TopNCollection& topn,
                       uint64_t seed = 5);

}  // namespace ganc

#endif  // GANC_CORE_GANC_H_
