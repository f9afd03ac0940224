#include "recommender/random_rec.h"

#include "recommender/model_io.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace ganc {

Status RandomRecommender::Fit(const RatingDataset& train) {
  num_items_ = train.num_items();
  train_fingerprint_ = train.Fingerprint();
  return Status::OK();
}

void RandomRecommender::ScoreInto(UserId u, std::span<double> out) const {
  // A per-user forked stream keeps scoring deterministic and thread-safe.
  Rng rng(seed_ ^ (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(u + 1)));
  for (double& s : out) s = rng.Uniform();
}

Status RandomRecommender::Save(std::ostream& os) const {
  if (num_items() == 0) {
    return Status::FailedPrecondition("cannot save unfitted Rand model");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kModel,
                                   static_cast<uint32_t>(ModelType::kRandom)));
  PayloadWriter config;
  config.WriteU64(seed_);  // the seed IS the model: scores derive from it
  GANC_RETURN_NOT_OK(w.WriteSection(kModelConfigSection, config));
  PayloadWriter state;
  state.WriteI32(num_items_);
  state.WriteU64(train_fingerprint_);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelStateSection, state));
  return w.Finish();
}

Status RandomRecommender::Load(ArtifactReader& r, const RatingDataset* train) {
  GANC_RETURN_NOT_OK(ReadModelHeader(r, ModelType::kRandom));
  Result<ArtifactReader::Section> config = r.ReadSectionExpect(
      kModelConfigSection);
  if (!config.ok()) return config.status();
  PayloadReader cr(config->payload);
  uint64_t seed = 0;
  GANC_RETURN_NOT_OK(cr.ReadU64(&seed));
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  Result<ArtifactReader::Section> state = r.ReadSectionExpect(
      kModelStateSection);
  if (!state.ok()) return state.status();
  PayloadReader sr(state->payload);
  int32_t num_items = 0;
  uint64_t fingerprint = 0;
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_items));
  GANC_RETURN_NOT_OK(sr.ReadU64(&fingerprint));
  GANC_RETURN_NOT_OK(sr.ExpectEnd());
  if (num_items < 0) {
    return Status::InvalidArgument("negative catalog size in Rand artifact");
  }
  if (train != nullptr) {
    if (num_items != train->num_items()) {
      return Status::InvalidArgument(
          "Rand artifact catalog does not match the provided dataset");
    }
    if (fingerprint != train->Fingerprint()) {
      return Status::InvalidArgument(
          "Rand artifact was trained on different data than the provided "
          "dataset (fingerprint mismatch)");
    }
  }
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));
  seed_ = seed;
  num_items_ = num_items;
  train_fingerprint_ = fingerprint;
  return Status::OK();
}

}  // namespace ganc
