#include "recommender/item_knn.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "recommender/model_io.h"
#include "recommender/sparse_similarity.h"
#include "util/serialize.h"

namespace ganc {

ItemKnnRecommender::ItemKnnRecommender(ItemKnnConfig config)
    : config_(config) {}

Status ItemKnnRecommender::Fit(const RatingDataset& train) {
  return Fit(train, nullptr);
}

Status ItemKnnRecommender::Fit(const RatingDataset& train, ThreadPool* pool) {
  if (config_.num_neighbors <= 0) {
    return Status::InvalidArgument("num_neighbors must be positive");
  }
  num_items_ = train.num_items();
  train_ = &train;
  // Validate the (possibly mapped) rows once up front; the index
  // builder's own sweeps then reuse the validation watermark.
  GANC_RETURN_NOT_OK(train.SweepRowWindows(
      train.train_budget_bytes(), 1,
      [](const RowWindow&) { return Status::OK(); }));
  index_ = ItemSimilarityIndex(train, config_.num_neighbors,
                               config_.max_profile, config_.seed, pool);
  return Status::OK();
}

void ItemKnnRecommender::ScoreInto(UserId u, std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  // Accumulate from the user's rated items outward: each rated item j
  // pushes sim(i, j) * r_uj onto its neighbours i. Equivalent to scoring
  // every i over its rated neighbours, but touches only |I_u| * k entries.
  for (const ItemRating& ir : train_->ItemsOf(u)) {
    for (const ItemNeighbor& nb : index_.NeighborsOf(ir.item)) {
      out[static_cast<size_t>(nb.item)] +=
          static_cast<double>(nb.sim) * static_cast<double>(ir.value);
    }
  }
}

void ItemKnnRecommender::ScoreBatchInto(std::span<const UserId> users,
                                        std::span<double> out) const {
  const size_t ni = static_cast<size_t>(num_items_);
  std::fill(out.begin(), out.end(), 0.0);
  for (size_t b = 0; b < users.size(); ++b) {
    const std::span<double> row = out.subspan(b * ni, ni);
    for (const ItemRating& ir : train_->ItemsOf(users[b])) {
      const double value = static_cast<double>(ir.value);
      for (const ItemNeighbor& nb : index_.NeighborsOf(ir.item)) {
        row[static_cast<size_t>(nb.item)] +=
            static_cast<double>(nb.sim) * value;
      }
    }
  }
}

Status ItemKnnRecommender::Save(std::ostream& os) const {
  if (num_items() == 0 || train_ == nullptr) {
    return Status::FailedPrecondition("cannot save unfitted ItemKNN model");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kModel,
                                   static_cast<uint32_t>(ModelType::kItemKnn)));
  PayloadWriter config;
  config.WriteI32(config_.num_neighbors);
  config.WriteI32(config_.max_profile);
  config.WriteU64(config_.seed);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelConfigSection, config));
  PayloadWriter state;
  state.WriteI32(num_items_);
  state.WriteI32(train_->num_users());
  state.WriteU64(train_->Fingerprint());
  WriteNeighborLists(state, index_.offsets(), index_.entries());
  GANC_RETURN_NOT_OK(w.WriteSection(kModelStateSection, state));
  return w.Finish();
}

Status ItemKnnRecommender::Load(ArtifactReader& r, const RatingDataset* train) {
  if (train == nullptr) {
    return Status::FailedPrecondition(
        "ItemKNN artifact requires a train dataset binding");
  }
  GANC_RETURN_NOT_OK(ReadModelHeader(r, ModelType::kItemKnn));
  Result<ArtifactReader::Section> config = r.ReadSectionExpect(
      kModelConfigSection);
  if (!config.ok()) return config.status();
  PayloadReader cr(config->payload);
  ItemKnnConfig cfg;
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.num_neighbors));
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.max_profile));
  GANC_RETURN_NOT_OK(cr.ReadU64(&cfg.seed));
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  Result<ArtifactReader::Section> state = r.ReadSectionExpect(
      kModelStateSection);
  if (!state.ok()) return state.status();
  PayloadReader sr(state->payload);
  int32_t num_items = 0;
  int32_t num_users = 0;
  uint64_t fingerprint = 0;
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_items));
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_users));
  GANC_RETURN_NOT_OK(sr.ReadU64(&fingerprint));
  if (num_items != train->num_items() || num_users != train->num_users()) {
    return Status::InvalidArgument(
        "ItemKNN artifact dimensions do not match the bound train dataset");
  }
  if (fingerprint != train->Fingerprint()) {
    return Status::InvalidArgument(
        "ItemKNN artifact was trained on different data than the bound "
        "train dataset (fingerprint mismatch)");
  }
  std::vector<size_t> offsets;
  std::vector<ItemNeighbor> entries;
  GANC_RETURN_NOT_OK(ReadNeighborLists(sr, num_items, num_items, "ItemKNN",
                                       &offsets, &entries));
  GANC_RETURN_NOT_OK(sr.ExpectEnd());
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));
  config_ = cfg;
  num_items_ = num_items;
  train_ = train;
  index_ = ItemSimilarityIndex::FromFlat(std::move(offsets),
                                         std::move(entries));
  return Status::OK();
}

}  // namespace ganc
