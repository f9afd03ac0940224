#include "recommender/pop.h"

#include <algorithm>

#include "recommender/model_io.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace ganc {

Status PopRecommender::Fit(const RatingDataset& train) {
  popularity_ = train.PopularityVector();
  MinMaxNormalize(&popularity_);
  train_fingerprint_ = train.Fingerprint();
  return Status::OK();
}

void PopRecommender::ScoreInto(UserId /*u*/, std::span<double> out) const {
  std::copy(popularity_.begin(), popularity_.end(), out.begin());
}

Status PopRecommender::Save(std::ostream& os) const {
  if (num_items() == 0) {
    return Status::FailedPrecondition("cannot save unfitted Pop model");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kModel,
                                   static_cast<uint32_t>(ModelType::kPop)));
  PayloadWriter config;  // Pop has no hyper-parameters.
  GANC_RETURN_NOT_OK(w.WriteSection(kModelConfigSection, config));
  PayloadWriter state;
  state.WriteU64(train_fingerprint_);
  state.WriteVecF64(popularity_);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelStateSection, state));
  return w.Finish();
}

Status PopRecommender::Load(ArtifactReader& r, const RatingDataset* train) {
  GANC_RETURN_NOT_OK(ReadModelHeader(r, ModelType::kPop));
  Result<ArtifactReader::Section> config = r.ReadSectionExpect(
      kModelConfigSection);
  if (!config.ok()) return config.status();
  PayloadReader cr(config->payload);
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  Result<ArtifactReader::Section> state = r.ReadSectionExpect(
      kModelStateSection);
  if (!state.ok()) return state.status();
  PayloadReader pr(state->payload);
  uint64_t fingerprint = 0;
  std::vector<double> popularity;
  GANC_RETURN_NOT_OK(pr.ReadU64(&fingerprint));
  GANC_RETURN_NOT_OK(pr.ReadVecF64(&popularity));
  GANC_RETURN_NOT_OK(pr.ExpectEnd());
  if (popularity.empty()) {
    return Status::InvalidArgument("empty catalog in Pop artifact");
  }
  if (train != nullptr) {
    if (static_cast<int32_t>(popularity.size()) != train->num_items()) {
      return Status::InvalidArgument(
          "Pop artifact catalog does not match the provided dataset");
    }
    if (fingerprint != train->Fingerprint()) {
      return Status::InvalidArgument(
          "Pop artifact was trained on different data than the provided "
          "dataset (fingerprint mismatch)");
    }
  }
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));
  popularity_ = std::move(popularity);
  train_fingerprint_ = fingerprint;
  return Status::OK();
}

}  // namespace ganc
