#include "recommender/recommender.h"

namespace ganc {

Status Recommender::Fit(const RatingDataset& train, ThreadPool* /*pool*/) {
  return Fit(train);
}

void Recommender::ScoreBatchInto(std::span<const UserId> users,
                                 std::span<double> out) const {
  const size_t ni = static_cast<size_t>(num_items());
  for (size_t b = 0; b < users.size(); ++b) {
    ScoreInto(users[b], out.subspan(b * ni, ni));
  }
}

Status Recommender::SetFactorPrecision(FactorPrecision p) {
  if (p == FactorPrecision::kFp64) return Status::OK();
  return Status::InvalidArgument(
      "model '" + name() + "' has no latent factor tables to compact to " +
      FactorPrecisionName(p));
}

Status Recommender::Save(std::ostream& /*os*/) const {
  return Status::NotImplemented("model '" + name() +
                                "' has no persistence support");
}

Status Recommender::Load(std::istream& is, const RatingDataset* train) {
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  if (!r.ok()) return r.status();
  return Load(*r, train);
}

Status Recommender::Load(ArtifactReader& /*r*/,
                         const RatingDataset* /*train*/) {
  return Status::NotImplemented("model '" + name() +
                                "' has no persistence support");
}

std::vector<double> Recommender::ScoreAll(UserId u) const {
  std::vector<double> scores(static_cast<size_t>(num_items()));
  ScoreInto(u, scores);
  return scores;
}

std::vector<ItemId> Recommender::RecommendTopN(
    UserId u, const std::vector<ItemId>& candidates, int n) const {
  ScoringContext ctx;
  std::vector<ItemId> out;
  RecommendTopNInto(u, candidates, n, ctx, out);
  return out;
}

void Recommender::RecommendTopNInto(UserId u,
                                    std::span<const ItemId> candidates, int n,
                                    ScoringContext& ctx,
                                    std::vector<ItemId>& out) const {
  const std::span<double> scores =
      ctx.Scores(static_cast<size_t>(num_items()));
  ScoreInto(u, scores);
  std::vector<ScoredItem>& top = ctx.TopK();
  SelectTopKFromScoresInto(scores, candidates, static_cast<size_t>(n), &top);
  out.clear();
  out.reserve(top.size());
  for (const ScoredItem& s : top) out.push_back(s.item);
}

std::vector<ScoredItem>& SelectTopKUnrated(std::span<const double> scores,
                                           const RatingDataset& train,
                                           UserId u, size_t k,
                                           ScoringContext& ctx,
                                           std::span<const ItemId> exclusions) {
  // "All unrated items" candidate generation is the whole catalog minus
  // the user's short history (and any request-time exclusions), so
  // instead of materializing a candidate list the dense top-k kernel
  // scans the score row and skips masked items through a flag mask,
  // marked and unmarked around the call so the mask stays zeroed
  // between users.
  std::vector<uint8_t>& masked = ctx.Flags();
  MarkUnavailable(train, u, exclusions, scores.size(), masked);
  std::vector<ScoredItem>& top = ctx.TopK();
  SelectTopKDenseInto(
      scores, k,
      [&](int32_t item) { return masked[static_cast<size_t>(item)] != 0; },
      &top);
  UnmarkUnavailable(train, u, exclusions, masked);
  return top;
}

std::vector<std::vector<ItemId>> RecommendAllUsers(const Recommender& model,
                                                   const RatingDataset& train,
                                                   int n, ThreadPool* pool) {
  std::vector<std::vector<ItemId>> result(
      static_cast<size_t>(train.num_users()));
  ParallelForChunks(
      pool, 0, static_cast<size_t>(train.num_users()),
      [&](size_t lo, size_t hi) {
        ScoringContext ctx;
        ForEachScoredUser(
            model, lo, hi, ctx,
            [&](UserId u, std::span<const double> scores) {
              const std::vector<ScoredItem>& top = SelectTopKUnrated(
                  scores, train, u, static_cast<size_t>(n), ctx);
              std::vector<ItemId>& out = result[static_cast<size_t>(u)];
              out.clear();
              out.reserve(top.size());
              for (const ScoredItem& s : top) out.push_back(s.item);
            });
      });
  return result;
}

}  // namespace ganc
