#include "recommender/random_walk.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "recommender/model_io.h"
#include "util/serialize.h"

namespace ganc {

namespace {

/// Per-thread walk scratch: a dense per-user mass accumulator plus the
/// list of touched users (reset in O(touched), not O(|U|)). thread_local
/// so concurrent ScoreInto calls on the same fitted model never share
/// state and the walk allocates nothing once the buffers are warm.
struct WalkScratch {
  std::vector<double> mass;
  std::vector<std::pair<UserId, double>> coraters;
};

}  // namespace

RandomWalkRecommender::RandomWalkRecommender(RandomWalkConfig config)
    : config_(config) {}

Status RandomWalkRecommender::Fit(const RatingDataset& train) {
  if (config_.beta < 0.0 || config_.beta > 1.0) {
    return Status::InvalidArgument("beta must lie in [0, 1]");
  }
  if (config_.max_coraters <= 0) {
    return Status::InvalidArgument("max_coraters must be positive");
  }
  train_ = &train;
  // Integer rating counts from the mapped-safe popularity sweep (no CSC
  // index or residency needed).
  const std::vector<double> pop = train.PopularityVector();
  item_penalty_.resize(static_cast<size_t>(train.num_items()));
  for (ItemId i = 0; i < train.num_items(); ++i) {
    item_penalty_[static_cast<size_t>(i)] =
        std::pow(std::max(pop[static_cast<size_t>(i)], 1.0), config_.beta);
  }
  return BuildWalkGraph(train);
}

Status RandomWalkRecommender::BuildWalkGraph(const RatingDataset& train) {
  const size_t nnz = static_cast<size_t>(train.num_ratings());
  user_offsets_.clear();
  user_offsets_.reserve(static_cast<size_t>(train.num_users()) + 1);
  user_offsets_.push_back(0);
  user_items_.clear();
  user_items_.reserve(nnz);
  item_offsets_.assign(static_cast<size_t>(train.num_items()) + 1, 0);
  GANC_RETURN_NOT_OK(train.SweepRowWindows(
      train.train_budget_bytes(), 1, [&](const RowWindow& w) {
        for (UserId u = w.begin; u < w.end; ++u) {
          for (const ItemRating& ir : train.ItemsOf(u)) {
            user_items_.push_back(ir.item);
            ++item_offsets_[static_cast<size_t>(ir.item) + 1];
          }
          user_offsets_.push_back(user_items_.size());
        }
        return Status::OK();
      }));
  // Counting-sort transpose: users land in each item's audience in
  // ascending order, matching the CSC view on user-major datasets.
  for (size_t i = 0; i + 1 < item_offsets_.size(); ++i) {
    item_offsets_[i + 1] += item_offsets_[i];
  }
  item_users_.resize(nnz);
  std::vector<size_t> cursor(item_offsets_.begin(), item_offsets_.end() - 1);
  for (UserId u = 0; u < train.num_users(); ++u) {
    const size_t begin = user_offsets_[static_cast<size_t>(u)];
    const size_t end = user_offsets_[static_cast<size_t>(u) + 1];
    for (size_t e = begin; e < end; ++e) {
      item_users_[cursor[static_cast<size_t>(user_items_[e])]++] = u;
    }
  }
  return Status::OK();
}

void RandomWalkRecommender::WalkInto(UserId u, std::span<double> out) const {
  const size_t row_begin = user_offsets_[static_cast<size_t>(u)];
  const size_t row_end = user_offsets_[static_cast<size_t>(u) + 1];
  if (row_begin == row_end) return;

  static thread_local WalkScratch scratch;
  scratch.mass.resize(user_offsets_.size() - 1);
  auto& coraters = scratch.coraters;
  coraters.clear();

  // Hop 1+2: mass over co-raters. Starting uniformly on the user's items,
  // an item forwards its mass equally to its raters. First touch of a
  // co-rater records it, so resetting costs O(touched) afterwards.
  const double start = 1.0 / static_cast<double>(row_end - row_begin);
  for (size_t e = row_begin; e < row_end; ++e) {
    const size_t i = static_cast<size_t>(user_items_[e]);
    const size_t aud_begin = item_offsets_[i];
    const size_t aud_end = item_offsets_[i + 1];
    if (aud_begin == aud_end) continue;
    const double share = start / static_cast<double>(aud_end - aud_begin);
    for (size_t a = aud_begin; a < aud_end; ++a) {
      const UserId s = item_users_[a];
      if (s == u) continue;
      double& m = scratch.mass[static_cast<size_t>(s)];
      if (m == 0.0) coraters.emplace_back(s, 0.0);
      m += share;
    }
  }
  for (auto& [s, mass] : coraters) {
    mass = scratch.mass[static_cast<size_t>(s)];
    scratch.mass[static_cast<size_t>(s)] = 0.0;  // reset for the next call
  }

  // Keep only the heaviest co-raters (bounds blockbuster fan-out); ties
  // broken by user id so the cut is independent of accumulation order.
  const auto heavier = [](const std::pair<UserId, double>& a,
                          const std::pair<UserId, double>& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (static_cast<int32_t>(coraters.size()) > config_.max_coraters) {
    std::nth_element(coraters.begin(),
                     coraters.begin() + config_.max_coraters - 1,
                     coraters.end(), heavier);
    coraters.resize(static_cast<size_t>(config_.max_coraters));
  }

  // Hop 3: co-raters distribute mass equally over their items.
  for (const auto& [s, mass] : coraters) {
    const size_t srow_begin = user_offsets_[static_cast<size_t>(s)];
    const size_t srow_end = user_offsets_[static_cast<size_t>(s) + 1];
    if (srow_begin == srow_end) continue;
    const double share =
        mass / static_cast<double>(srow_end - srow_begin);
    for (size_t e = srow_begin; e < srow_end; ++e) {
      out[static_cast<size_t>(user_items_[e])] += share;
    }
  }

  // Popularity discount: divide the visiting probability by pop^beta.
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] > 0.0) out[i] /= item_penalty_[i];
  }
}

void RandomWalkRecommender::ScoreInto(UserId u, std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  WalkInto(u, out);
}

void RandomWalkRecommender::ScoreBatchInto(std::span<const UserId> users,
                                           std::span<double> out) const {
  const size_t ni = item_penalty_.size();
  std::fill(out.begin(), out.end(), 0.0);
  for (size_t b = 0; b < users.size(); ++b) {
    WalkInto(users[b], out.subspan(b * ni, ni));
  }
}

Status RandomWalkRecommender::Save(std::ostream& os) const {
  if (num_items() == 0 || train_ == nullptr) {
    return Status::FailedPrecondition("cannot save unfitted RP3b model");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(
      ArtifactKind::kModel, static_cast<uint32_t>(ModelType::kRandomWalk)));
  PayloadWriter config;
  config.WriteF64(config_.beta);
  config.WriteI32(config_.max_coraters);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelConfigSection, config));
  PayloadWriter state;
  state.WriteI32(train_->num_users());  // walk graph dims for rebinding
  state.WriteU64(train_->Fingerprint());
  state.WriteVecF64(item_penalty_);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelStateSection, state));
  return w.Finish();
}

Status RandomWalkRecommender::Load(ArtifactReader& r,
                                   const RatingDataset* train) {
  if (train == nullptr) {
    return Status::FailedPrecondition(
        "RP3b artifact requires a train dataset binding");
  }
  GANC_RETURN_NOT_OK(ReadModelHeader(r, ModelType::kRandomWalk));
  Result<ArtifactReader::Section> config = r.ReadSectionExpect(
      kModelConfigSection);
  if (!config.ok()) return config.status();
  PayloadReader cr(config->payload);
  RandomWalkConfig cfg;
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.beta));
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.max_coraters));
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  if (cfg.beta < 0.0 || cfg.beta > 1.0 || cfg.max_coraters <= 0) {
    return Status::InvalidArgument("invalid RP3b config in artifact");
  }
  Result<ArtifactReader::Section> state = r.ReadSectionExpect(
      kModelStateSection);
  if (!state.ok()) return state.status();
  PayloadReader sr(state->payload);
  int32_t num_users = 0;
  uint64_t fingerprint = 0;
  std::vector<double> penalty;
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_users));
  GANC_RETURN_NOT_OK(sr.ReadU64(&fingerprint));
  GANC_RETURN_NOT_OK(sr.ReadVecF64(&penalty));
  GANC_RETURN_NOT_OK(sr.ExpectEnd());
  if (num_users != train->num_users() ||
      static_cast<int32_t>(penalty.size()) != train->num_items()) {
    return Status::InvalidArgument(
        "RP3b artifact dimensions do not match the bound train dataset");
  }
  if (fingerprint != train->Fingerprint()) {
    return Status::InvalidArgument(
        "RP3b artifact was trained on different data than the bound train "
        "dataset (fingerprint mismatch)");
  }
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));
  config_ = cfg;
  train_ = train;
  item_penalty_ = std::move(penalty);
  return BuildWalkGraph(*train);
}

}  // namespace ganc
