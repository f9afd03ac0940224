// Accuracy recommenders for GANC (Section III-A).
//
// GANC's value function needs a(i) in [0, 1] on the same scale as the
// coverage score. Score-producing models (RSVD, PSVD, CofiR, ...) are
// min-max normalized per user; the non-personalized Pop model, which does
// not emit scores, contributes the indicator a(i) = 1[i in Pop's top-N
// unseen items for u] exactly as the paper defines.
//
// Like Recommender, the scoring primitives are ScoreInto and the
// batch-major ScoreBatchInto (both adapters forward the batch to the
// base model's blocked kernel); ScoreAll is the allocating wrapper.
// GANC's selection kernel reads ScoreBatchScaledInto instead: the base
// scores plus each row's min-max scale, so the normalization folds into
// the selection pass and no normalized row is written.

#ifndef GANC_CORE_ACCURACY_SCORER_H_
#define GANC_CORE_ACCURACY_SCORER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "recommender/recommender.h"
#include "util/stats.h"

namespace ganc {

/// Produces normalized accuracy scores a(i) in [0, 1] for all items.
class AccuracyScorer {
 public:
  virtual ~AccuracyScorer() = default;

  /// Catalog size the scorer produces scores over.
  virtual int32_t num_items() const = 0;

  /// Writes a(i) for every item in the catalog for user u into `out`
  /// (exactly num_items() entries), each in [0, 1]. Thread-safe.
  virtual void ScoreInto(UserId u, std::span<double> out) const = 0;

  /// Batch-major variant over a user batch (same layout and contract as
  /// Recommender::ScoreBatchInto); must match per-user ScoreInto calls.
  /// The default loops over ScoreInto; the adapters forward to the base
  /// model's blocked kernel. Thread-safe.
  virtual void ScoreBatchInto(std::span<const UserId> users,
                              std::span<double> out) const;

  /// Scale-deferred ScoreBatchInto: row b of `out` holds scores r and
  /// scales[b] a RowScale such that (r_i - lo) / range is ScoreBatchInto's
  /// a(i) bit for bit (`scales` has one entry per user). The default
  /// writes ScoreBatchInto's rows with {0, 1}: (v - 0.0) / 1.0 == v for
  /// every double. Thread-safe.
  virtual void ScoreBatchScaledInto(std::span<const UserId> users,
                                    std::span<double> out,
                                    std::span<RowScale> scales) const;

  /// Allocating convenience wrapper over ScoreInto.
  std::vector<double> ScoreAll(UserId u) const;

  virtual std::string name() const = 0;
};

/// Per-user min-max normalization of an underlying Recommender's scores.
class NormalizedAccuracyScorer : public AccuracyScorer {
 public:
  /// `base` must be fitted and outlive this scorer.
  explicit NormalizedAccuracyScorer(const Recommender* base) : base_(base) {}

  int32_t num_items() const override { return base_->num_items(); }
  void ScoreInto(UserId u, std::span<double> out) const override;
  void ScoreBatchInto(std::span<const UserId> users,
                      std::span<double> out) const override;
  /// The base model's raw rows with MinMaxScale's {lo, range}. A constant
  /// row, which MinMaxNormalize maps to zeros, is written as zeros with
  /// {0, 1}.
  void ScoreBatchScaledInto(std::span<const UserId> users,
                            std::span<double> out,
                            std::span<RowScale> scales) const override;
  std::string name() const override { return base_->name(); }

 private:
  const Recommender* base_;
};

/// Indicator accuracy for non-scoring models: a(i) = 1 iff i is in the
/// base model's top-N unseen items for the user (paper's Pop adapter).
class TopNIndicatorScorer : public AccuracyScorer {
 public:
  /// `base` and `train` must be fitted/valid and outlive this scorer.
  TopNIndicatorScorer(const Recommender* base, const RatingDataset* train,
                      int top_n)
      : base_(base), train_(train), top_n_(top_n) {}

  int32_t num_items() const override { return train_->num_items(); }
  void ScoreInto(UserId u, std::span<double> out) const override;
  void ScoreBatchInto(std::span<const UserId> users,
                      std::span<double> out) const override;
  std::string name() const override { return base_->name(); }

 private:
  const Recommender* base_;
  const RatingDataset* train_;
  int top_n_;
};

/// ForEachScoredUser over scale-deferred rows: runs fn(u, raw_row, scale)
/// for every user in `users`, scoring in blocks of kScoreBatch through
/// ScoreBatchScaledInto. fn may use every ctx buffer except BatchScores
/// and RowScales, which hold the in-flight block.
template <typename Fn>
void ForEachScaledUser(const AccuracyScorer& scorer,
                       std::span<const UserId> users, ScoringContext& ctx,
                       Fn&& fn) {
  const size_t ni = static_cast<size_t>(scorer.num_items());
  std::vector<RowScale>& scales = ctx.RowScales();
  for (size_t b0 = 0; b0 < users.size(); b0 += kScoreBatch) {
    const size_t bn = std::min(kScoreBatch, users.size() - b0);
    const std::span<double> batch = ctx.BatchScores(bn * ni);
    scales.resize(bn);
    scorer.ScoreBatchScaledInto(users.subspan(b0, bn), batch, scales);
    for (size_t b = 0; b < bn; ++b) {
      fn(users[b0 + b], std::span<const double>(batch.subspan(b * ni, ni)),
         scales[b]);
    }
  }
}

/// Contiguous-range variant over users [lo, hi), through
/// ctx.BatchUsers().
template <typename Fn>
void ForEachScaledUser(const AccuracyScorer& scorer, size_t lo, size_t hi,
                       ScoringContext& ctx, Fn&& fn) {
  std::vector<UserId>& users = ctx.BatchUsers();
  users.clear();
  for (size_t uu = lo; uu < hi; ++uu) users.push_back(static_cast<UserId>(uu));
  ForEachScaledUser(scorer, std::span<const UserId>(users), ctx,
                    std::forward<Fn>(fn));
}

}  // namespace ganc

#endif  // GANC_CORE_ACCURACY_SCORER_H_
