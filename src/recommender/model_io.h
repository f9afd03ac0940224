// Model artifact type registry and path-based save/load entry points.
//
// Every Recommender serializes itself through Save/Load (see
// recommender.h for the contract and docs/FORMATS.md for the wire
// layout). This header owns the model type tags stored in artifact
// headers plus the factory that reads a tag and constructs the right
// concrete class — the piece a serving process needs to load "whatever
// model training saved" without hardcoding the type.

#ifndef GANC_RECOMMENDER_MODEL_IO_H_
#define GANC_RECOMMENDER_MODEL_IO_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <string>

#include "recommender/recommender.h"
#include "util/serialize.h"
#include "util/status.h"

namespace ganc {

/// Stable type tags stored in model artifact headers. Append-only: a
/// tag, once shipped, is never reused for a different model.
enum class ModelType : uint32_t {
  kPop = 1,
  kRandom = 2,
  kRandomWalk = 3,
  kItemKnn = 4,
  kUserKnn = 5,
  kPsvd = 6,
  kRsvd = 7,
  kBpr = 8,
  kCofi = 9,
};

/// Section ids shared by all model artifacts: hyper-parameters first,
/// learned state second; the latent-factor models (PSVD, RSVD, BPR,
/// CofiR) append their factor tables as a third section at whatever
/// precision is active (FactorStore, docs/FORMATS.md §factor tables).
inline constexpr uint32_t kModelConfigSection = 1;
inline constexpr uint32_t kModelStateSection = 2;
inline constexpr uint32_t kFactorTableSection = 3;

/// Validates the kind/type in `r`'s header. The shared prologue of
/// every Recommender::Load implementation.
Status ReadModelHeader(const ArtifactReader& r, ModelType type);

/// Saves a fitted model to `path` (overwrites).
Status SaveModelFile(const Recommender& model, const std::string& path);

/// Reads the model type tag from the artifact header, constructs the
/// matching recommender (with default hyper-parameters, which Load then
/// overwrites from the artifact), and loads it from the same reader.
/// The latent-factor models borrow their factor tables zero-copy from
/// the reader's bytes. `train` rebinds the dataset-backed models;
/// self-contained models ignore it.
Result<std::unique_ptr<Recommender>> LoadModel(ArtifactReader& r,
                                               const RatingDataset* train);

/// LoadModel over a stream positioned at the artifact's first byte: the
/// artifact is buffered in memory, and the stream is left just past it.
Result<std::unique_ptr<Recommender>> LoadModel(std::istream& is,
                                               const RatingDataset* train);

/// LoadModel over a file mapping of `path`.
Result<std::unique_ptr<Recommender>> LoadModelFile(const std::string& path,
                                                   const RatingDataset* train);

}  // namespace ganc

#endif  // GANC_RECOMMENDER_MODEL_IO_H_
