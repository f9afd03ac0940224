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

#ifndef GANC_CORE_GANC_H_
#define GANC_CORE_GANC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/accuracy_scorer.h"
#include "core/coverage.h"
#include "data/dataset.h"
#include "recommender/scoring_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

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

/// Greedy top-N for one user under mixed score
/// (1-theta_u) * a(i) + theta_u * c(u, i). Exposed for tests and for the
/// sequential phase of custom optimizers.
std::vector<ItemId> GreedyTopNForUser(const std::vector<double>& accuracy,
                                      double theta_u,
                                      const CoverageModel& coverage, UserId u,
                                      const std::vector<ItemId>& candidates,
                                      int top_n);

/// Allocation-free variant: selects through ctx's top-k heap and
/// overwrites `out` (capacity reused). Identical output. Uses ctx.TopK
/// only, so `accuracy` may live in ctx.Scores and `candidates` in
/// ctx.Candidates.
void GreedyTopNForUserInto(std::span<const double> accuracy, double theta_u,
                           const CoverageModel& coverage, UserId u,
                           std::span<const ItemId> candidates, int top_n,
                           ScoringContext& ctx, std::vector<ItemId>& out);

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
