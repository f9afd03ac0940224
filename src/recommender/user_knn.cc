#include "recommender/user_knn.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "recommender/model_io.h"
#include "recommender/sparse_similarity.h"
#include "util/serialize.h"

namespace ganc {

UserKnnRecommender::UserKnnRecommender(UserKnnConfig config)
    : config_(config) {}

Status UserKnnRecommender::Fit(const RatingDataset& train) {
  return Fit(train, nullptr);
}

Status UserKnnRecommender::Fit(const RatingDataset& train, ThreadPool* pool) {
  if (config_.num_neighbors <= 0) {
    return Status::InvalidArgument("num_neighbors must be positive");
  }
  num_items_ = train.num_items();
  train_ = &train;
  const int32_t num_users = train.num_users();

  // Per-user means and centered norms, streamed through the budgeted
  // window sweep (validates mapped rows; later sweeps reuse the
  // watermark).
  user_mean_.assign(static_cast<size_t>(num_users), 0.0);
  std::vector<double> norms(static_cast<size_t>(num_users), 0.0);
  GANC_RETURN_NOT_OK(train.SweepRowWindows(
      train.train_budget_bytes(), 1, [&](const RowWindow& w) {
        for (UserId u = w.begin; u < w.end; ++u) {
          const auto& row = train.ItemsOf(u);
          if (row.empty()) continue;
          double acc = 0.0;
          for (const ItemRating& ir : row) acc += ir.value;
          user_mean_[static_cast<size_t>(u)] =
              acc / static_cast<double>(row.size());
          for (const ItemRating& ir : row) {
            const double c = ir.value - user_mean_[static_cast<size_t>(u)];
            norms[static_cast<size_t>(u)] += c * c;
          }
          norms[static_cast<size_t>(u)] =
              std::sqrt(norms[static_cast<size_t>(u)]);
        }
        return Status::OK();
      }));

  // Inverted-index sweep over the pre-sampled, pre-centered audiences:
  // per user pair the centered co-ratings accumulate in ascending item
  // order, exactly as the legacy item-outer hash-map builder did.
  const SparseMatrix sampled = SampleItemAudiences(
      train, config_.max_audience, config_.seed, user_mean_);
  const SparseMatrix by_user = Transpose(sampled, num_users);
  NeighborLists<Neighbor> lists = SparseCosineTopK<Neighbor>(
      by_user, sampled, norms, config_.num_neighbors, pool);
  neighbor_offsets_ = std::move(lists.offsets);
  neighbors_ = std::move(lists.entries);
  return BuildScoringRows(train);
}

Status UserKnnRecommender::BuildScoringRows(const RatingDataset& train) {
  const int32_t num_users = train.num_users();
  row_offsets_.clear();
  row_offsets_.reserve(static_cast<size_t>(num_users) + 1);
  row_offsets_.push_back(0);
  row_items_.clear();
  row_centered_.clear();
  row_items_.reserve(static_cast<size_t>(train.num_ratings()));
  row_centered_.reserve(static_cast<size_t>(train.num_ratings()));
  return train.SweepRowWindows(
      train.train_budget_bytes(), 1, [&](const RowWindow& w) {
        for (UserId u = w.begin; u < w.end; ++u) {
          const double mean = user_mean_[static_cast<size_t>(u)];
          for (const ItemRating& ir : train.ItemsOf(u)) {
            row_items_.push_back(ir.item);
            row_centered_.push_back(static_cast<double>(ir.value) - mean);
          }
          row_offsets_.push_back(row_items_.size());
        }
        return Status::OK();
      });
}

void UserKnnRecommender::ScoreInto(UserId u, std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  for (const Neighbor& nb : NeighborsOf(u)) {
    const double sim = static_cast<double>(nb.sim);
    const size_t begin = row_offsets_[static_cast<size_t>(nb.user)];
    const size_t end = row_offsets_[static_cast<size_t>(nb.user) + 1];
    for (size_t e = begin; e < end; ++e) {
      out[static_cast<size_t>(row_items_[e])] += sim * row_centered_[e];
    }
  }
}

void UserKnnRecommender::ScoreBatchInto(std::span<const UserId> users,
                                        std::span<double> out) const {
  const size_t ni = static_cast<size_t>(num_items_);
  std::fill(out.begin(), out.end(), 0.0);
  for (size_t b = 0; b < users.size(); ++b) {
    const std::span<double> row = out.subspan(b * ni, ni);
    for (const Neighbor& nb : NeighborsOf(users[b])) {
      const double sim = static_cast<double>(nb.sim);
      const size_t begin = row_offsets_[static_cast<size_t>(nb.user)];
      const size_t end = row_offsets_[static_cast<size_t>(nb.user) + 1];
      for (size_t e = begin; e < end; ++e) {
        row[static_cast<size_t>(row_items_[e])] += sim * row_centered_[e];
      }
    }
  }
}

Status UserKnnRecommender::Save(std::ostream& os) const {
  if (num_items() == 0 || train_ == nullptr) {
    return Status::FailedPrecondition("cannot save unfitted UserKNN model");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kModel,
                                   static_cast<uint32_t>(ModelType::kUserKnn)));
  PayloadWriter config;
  config.WriteI32(config_.num_neighbors);
  config.WriteI32(config_.max_audience);
  config.WriteU64(config_.seed);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelConfigSection, config));
  PayloadWriter state;
  state.WriteI32(num_items_);
  state.WriteU64(train_->Fingerprint());
  state.WriteVecF64(user_mean_);
  WriteNeighborLists(state, std::span<const size_t>(neighbor_offsets_),
                     std::span<const Neighbor>(neighbors_));
  GANC_RETURN_NOT_OK(w.WriteSection(kModelStateSection, state));
  return w.Finish();
}

Status UserKnnRecommender::Load(ArtifactReader& r, const RatingDataset* train) {
  if (train == nullptr) {
    return Status::FailedPrecondition(
        "UserKNN artifact requires a train dataset binding");
  }
  GANC_RETURN_NOT_OK(ReadModelHeader(r, ModelType::kUserKnn));
  Result<ArtifactReader::Section> config = r.ReadSectionExpect(
      kModelConfigSection);
  if (!config.ok()) return config.status();
  PayloadReader cr(config->payload);
  UserKnnConfig cfg;
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.num_neighbors));
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.max_audience));
  GANC_RETURN_NOT_OK(cr.ReadU64(&cfg.seed));
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  Result<ArtifactReader::Section> state = r.ReadSectionExpect(
      kModelStateSection);
  if (!state.ok()) return state.status();
  PayloadReader sr(state->payload);
  int32_t num_items = 0;
  uint64_t fingerprint = 0;
  std::vector<double> means;
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_items));
  GANC_RETURN_NOT_OK(sr.ReadU64(&fingerprint));
  GANC_RETURN_NOT_OK(sr.ReadVecF64(&means));
  const int32_t num_users = static_cast<int32_t>(means.size());
  if (num_items != train->num_items() || num_users != train->num_users()) {
    return Status::InvalidArgument(
        "UserKNN artifact dimensions do not match the bound train dataset");
  }
  if (fingerprint != train->Fingerprint()) {
    return Status::InvalidArgument(
        "UserKNN artifact was trained on different data than the bound "
        "train dataset (fingerprint mismatch)");
  }
  std::vector<size_t> offsets;
  std::vector<Neighbor> entries;
  GANC_RETURN_NOT_OK(ReadNeighborLists(sr, num_users, num_users, "UserKNN",
                                       &offsets, &entries));
  GANC_RETURN_NOT_OK(sr.ExpectEnd());
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));
  config_ = cfg;
  num_items_ = num_items;
  train_ = train;
  user_mean_ = std::move(means);
  neighbor_offsets_ = std::move(offsets);
  neighbors_ = std::move(entries);
  return BuildScoringRows(*train);
}

}  // namespace ganc
