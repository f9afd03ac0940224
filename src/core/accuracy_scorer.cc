#include "core/accuracy_scorer.h"

#include <algorithm>

#include "recommender/scoring_context.h"
#include "util/stats.h"

namespace ganc {

void AccuracyScorer::ScoreBatchInto(std::span<const UserId> users,
                                    std::span<double> out) const {
  const size_t ni = static_cast<size_t>(num_items());
  for (size_t b = 0; b < users.size(); ++b) {
    ScoreInto(users[b], out.subspan(b * ni, ni));
  }
}

void AccuracyScorer::ScoreBatchScaledInto(std::span<const UserId> users,
                                          std::span<double> out,
                                          std::span<RowScale> scales) const {
  ScoreBatchInto(users, out);
  std::fill(scales.begin(), scales.end(), RowScale{});
}

std::vector<double> AccuracyScorer::ScoreAll(UserId u) const {
  std::vector<double> scores(static_cast<size_t>(num_items()));
  ScoreInto(u, scores);
  return scores;
}

void NormalizedAccuracyScorer::ScoreInto(UserId u,
                                         std::span<double> out) const {
  base_->ScoreInto(u, out);
  MinMaxNormalize(out);
}

void NormalizedAccuracyScorer::ScoreBatchInto(std::span<const UserId> users,
                                              std::span<double> out) const {
  base_->ScoreBatchInto(users, out);
  const size_t ni = static_cast<size_t>(num_items());
  for (size_t b = 0; b < users.size(); ++b) {
    MinMaxNormalize(out.subspan(b * ni, ni));
  }
}

void NormalizedAccuracyScorer::ScoreBatchScaledInto(
    std::span<const UserId> users, std::span<double> out,
    std::span<RowScale> scales) const {
  base_->ScoreBatchInto(users, out);
  const size_t ni = static_cast<size_t>(num_items());
  for (size_t b = 0; b < users.size(); ++b) {
    const std::span<double> row = out.subspan(b * ni, ni);
    RowScale scale;
    if (!row.empty()) scale = MinMaxScale(row);
    // MinMaxNormalize's constant-row rule, applied here so that every
    // row reaching (r - lo) / range has a positive (or NaN) range.
    if (scale.range <= 0.0) {
      std::fill(row.begin(), row.end(), 0.0);
      scale = RowScale{};
    }
    scales[b] = scale;
  }
}

void TopNIndicatorScorer::ScoreInto(UserId u, std::span<double> out) const {
  // The adapter's scratch is thread_local rather than caller-provided so
  // `out` can come from the caller's own ScoringContext without aliasing
  // the buffers the inner RecommendTopNInto call writes through.
  static thread_local ScoringContext ctx;
  static thread_local std::vector<ItemId> top;
  train_->UnratedItemsInto(u, &ctx.Candidates());
  base_->RecommendTopNInto(u, ctx.Candidates(), top_n_, ctx, top);
  std::fill(out.begin(), out.end(), 0.0);
  for (ItemId i : top) out[static_cast<size_t>(i)] = 1.0;
}

void TopNIndicatorScorer::ScoreBatchInto(std::span<const UserId> users,
                                         std::span<double> out) const {
  // Same thread_local scratch rationale as ScoreInto; here it also holds
  // the base model's batch score block, so the base kernel runs once per
  // block instead of once per user.
  static thread_local ScoringContext ctx;
  const size_t ni = static_cast<size_t>(num_items());
  const std::span<double> base_scores = ctx.BatchScores(users.size() * ni);
  base_->ScoreBatchInto(users, base_scores);
  for (size_t b = 0; b < users.size(); ++b) {
    const std::vector<ScoredItem>& top =
        SelectTopKUnrated(base_scores.subspan(b * ni, ni), *train_, users[b],
                          static_cast<size_t>(top_n_), ctx);
    const std::span<double> row = out.subspan(b * ni, ni);
    std::fill(row.begin(), row.end(), 0.0);
    for (const ScoredItem& s : top) row[static_cast<size_t>(s.item)] = 1.0;
  }
}

}  // namespace ganc
