// Common interface for base recommenders.
//
// Every model fits on a train RatingDataset and can score the whole
// catalog for a user. The scoring primitives are ScoreInto (one user into
// a caller-owned buffer) and ScoreBatchInto (a user batch into one
// batch-major buffer); the latent-factor models override the batch path
// with the cache-blocked FactorScoringEngine kernel, the sparse models
// (ItemKNN, UserKNN, RP3b) with flat-CSR scatter loops, and the rest
// inherit the per-user loop. ScoreAll is the allocating convenience
// wrapper. Top-N generation always uses the shared SelectTopK kernels so
// tie-breaking is deterministic across models and across the
// sequential/parallel paths.

#ifndef GANC_RECOMMENDER_RECOMMENDER_H_
#define GANC_RECOMMENDER_RECOMMENDER_H_

#include <algorithm>
#include <cstddef>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "recommender/factor_scoring_engine.h"
#include "recommender/scoring_context.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/top_k.h"

namespace ganc {

/// Abstract base recommender.
class Recommender {
 public:
  virtual ~Recommender() = default;

  /// Trains on `train`. Must be called before scoring. Idempotent: fitting
  /// again retrains from scratch. Models that keep a borrowed pointer to
  /// `train` (ItemKNN, UserKNN, RP3b) require it to outlive all scoring
  /// calls; the matrix-free models copy everything they need.
  virtual Status Fit(const RatingDataset& train) = 0;

  /// Pool-aware training overload. Models with parallelizable fits
  /// (ItemKNN and UserKNN shard their similarity sweeps over the pool's
  /// workers with a deterministic merge) override this; everything else
  /// inherits the default, which ignores the pool and runs the serial
  /// fit.
  ///
  /// Contract: the fitted state — and therefore every score and every
  /// saved artifact byte — is identical for any pool, including none
  /// (pinned by the sparse parity suite). A null pool always means
  /// serial.
  virtual Status Fit(const RatingDataset& train, ThreadPool* pool);

  /// Per-epoch progress hook for the iterative trainers (RSVD, BPR,
  /// CofiR): invoked after each completed epoch with (epoch,
  /// num_epochs), from the thread driving Fit. Observability only — it
  /// must not influence training, is never serialized, and the default
  /// (and every non-epoch model) ignores it.
  using EpochCallback = std::function<void(int32_t, int32_t)>;
  virtual void SetEpochCallback(EpochCallback callback) { (void)callback; }

  /// Catalog size the fitted model scores over (0 before Fit/Load).
  virtual int32_t num_items() const = 0;

  /// Writes a dense score for every item in the catalog for user `u` into
  /// `out`; higher is better.
  ///
  /// Contract:
  ///  - `out` is caller-owned and must span exactly num_items() entries;
  ///    the model overwrites every entry and never keeps a reference past
  ///    the call (use ScoringContext::Scores to reuse one buffer across
  ///    calls without per-user allocation).
  ///  - Thread-safe on a fitted (or loaded) model: concurrent ScoreInto /
  ///    ScoreBatchInto calls on distinct output buffers are safe. Fit and
  ///    Load are NOT thread-safe against concurrent scoring. The scratch
  ///    behind the buffers is a different matter: a ScoringContext is
  ///    owned by exactly one thread for its whole life (create one per
  ///    worker — never hand a context between threads, even with
  ///    external synchronization; debug builds abort on violation, see
  ///    scoring_context.h).
  ///  - Deterministic: the same fitted state yields bit-identical scores
  ///    on every call (Rand derives scores from (seed, u, item), not from
  ///    mutable generator state).
  ///  - Scales differ between models; normalize before mixing (see
  ///    core/accuracy_scorer.h).
  virtual void ScoreInto(UserId u, std::span<double> out) const = 0;

  /// Writes dense catalog scores for every user in `users` into the
  /// batch-major `out` (users.size() * num_items() entries; row b holds
  /// the scores of users[b]).
  ///
  /// Contract: same buffer-ownership and thread-safety rules as
  /// ScoreInto, and the scores must be bit-identical to users.size()
  /// per-user ScoreInto calls (pinned by the scoring parity suite). The
  /// default loops over ScoreInto; the latent-factor models (PSVD, RSVD,
  /// BPR, CofiR) override it with the blocked FactorScoringEngine kernel,
  /// and the sparse models (ItemKNN, UserKNN, RP3b) with flat-CSR batch
  /// scatter loops (one bulk zero-fill per block).
  virtual void ScoreBatchInto(std::span<const UserId> users,
                              std::span<double> out) const;

  /// Serializes the fitted model as a versioned, checksummed binary
  /// artifact (see docs/FORMATS.md) so a trained model can be served by
  /// a different process via Load.
  ///
  /// Contract:
  ///  - Requires a fitted model; saving an unfitted model is a
  ///    FailedPrecondition error.
  ///  - The artifact captures every input to scoring: a Load of the
  ///    written bytes produces bit-identical ScoreInto / ScoreBatchInto
  ///    output (and therefore identical top-N lists) on all models.
  ///  - `os` must be a binary stream; the artifact is self-contained and
  ///    self-describing (magic, format version, model type tag).
  ///  - Const and thread-safe against concurrent scoring.
  ///
  /// The default implementation returns NotImplemented; every shipped
  /// model overrides it. Use SaveModelFile / LoadModelFile
  /// (recommender/model_io.h) for path-based round trips and
  /// type-dispatching loads.
  virtual Status Save(std::ostream& os) const;

  /// Restores the state written by Save of the same concrete class,
  /// replacing any previously fitted state.
  ///
  /// Contract:
  ///  - Fails (without clobbering `*this`'s usable state guarantees) on
  ///    bad magic, unsupported format version, wrong model type,
  ///    truncation, or checksum mismatch.
  ///  - `train` rebinds the dataset-backed models (ItemKNN, UserKNN,
  ///    RP3b score against user profiles, so their artifacts store the
  ///    learned structures but borrow the dataset): those models require
  ///    `train` non-null with matching |U| x |I| dimensions AND a
  ///    matching content fingerprint (RatingDataset::Fingerprint), and
  ///    it must outlive scoring, exactly as after Fit. The
  ///    self-contained models accept nullptr; when `train` is provided
  ///    they validate their dimensions and stored train fingerprint
  ///    against it, so a model is never silently served against a
  ///    split it was not trained on.
  ///  - Hyper-parameters stored in the artifact overwrite the instance's
  ///    config, so name() and scoring behavior match the saved model.
  ///  - Not thread-safe against concurrent scoring (like Fit).
  ///
  /// The stream overload is a convenience wrapper that buffers `is`
  /// into an ArtifactReader and dispatches to the reader overload — the
  /// virtual hook every model implements. The factor-table models
  /// borrow their tables zero-copy from the reader's bytes (a file
  /// mapping or that buffer) instead of copying them.
  Status Load(std::istream& is, const RatingDataset* train);
  virtual Status Load(ArtifactReader& r, const RatingDataset* train);

  /// Converts the model's factor tables to `p` in place (see
  /// factor_view.h for the precision semantics). The latent-factor
  /// models (PSVD, RSVD, BPR, CofiR) override this to materialize the
  /// compact tables and drop the fp64 originals; converting a compacted
  /// model again is an error there (narrowing is one-way). Every other
  /// model accepts only kFp64 (a no-op) and rejects the compact
  /// precisions — it has no factor tables to compact.
  virtual Status SetFactorPrecision(FactorPrecision p);

  /// Active factor-table precision; kFp64 for models without factor
  /// tables. Surfaces in the serve snapshot (see serve layer).
  virtual FactorPrecision factor_precision() const {
    return FactorPrecision::kFp64;
  }

  /// Allocating convenience wrapper over ScoreInto.
  std::vector<double> ScoreAll(UserId u) const;

  /// Model name for reports, e.g. "RSVD" or "PSVD100".
  virtual std::string name() const = 0;

  /// Top-N item ids among `candidates` in best-first order.
  std::vector<ItemId> RecommendTopN(UserId u,
                                    const std::vector<ItemId>& candidates,
                                    int n) const;

  /// Allocation-free top-N: scores through ctx's score buffer, selects
  /// through ctx's top-k heap, and overwrites `out` (capacity reused).
  /// Output is identical to RecommendTopN. Uses ctx.Scores and ctx.TopK;
  /// `candidates` may alias ctx.Candidates().
  void RecommendTopNInto(UserId u, std::span<const ItemId> candidates, int n,
                         ScoringContext& ctx, std::vector<ItemId>& out) const;
};

/// Users per ScoreBatchInto call in the framework's full-catalog loops:
/// one FactorScoringEngine register block, small enough that a batch
/// score buffer stays cache-resident at any catalog size. Defined from
/// the engine constant so retuning the kernel block retunes every loop.
inline constexpr size_t kScoreBatch = FactorScoringEngine::kUserBlock;

/// Runs fn(u, scores_row) for every user in `users`, scoring in blocks of
/// kScoreBatch through ctx's batch buffer. `scorer` is anything with
/// num_items() and ScoreBatchInto(users, out) — a Recommender or an
/// AccuracyScorer. fn may use every ctx buffer except BatchScores, which
/// holds the in-flight block (the contiguous variant additionally owns
/// ctx.BatchUsers()).
template <typename Scorer, typename Fn>
void ForEachScoredUser(const Scorer& scorer, std::span<const UserId> users,
                       ScoringContext& ctx, Fn&& fn) {
  const size_t ni = static_cast<size_t>(scorer.num_items());
  for (size_t b0 = 0; b0 < users.size(); b0 += kScoreBatch) {
    const size_t bn = std::min(kScoreBatch, users.size() - b0);
    const std::span<double> batch = ctx.BatchScores(bn * ni);
    scorer.ScoreBatchInto(users.subspan(b0, bn), batch);
    for (size_t b = 0; b < bn; ++b) {
      fn(users[b0 + b], std::span<const double>(batch.subspan(b * ni, ni)));
    }
  }
}

/// Contiguous-range variant: scores users [lo, hi) through
/// ctx.BatchUsers() — the chunk shape every ParallelForChunks consumer
/// gets.
template <typename Scorer, typename Fn>
void ForEachScoredUser(const Scorer& scorer, size_t lo, size_t hi,
                       ScoringContext& ctx, Fn&& fn) {
  std::vector<UserId>& users = ctx.BatchUsers();
  users.clear();
  for (size_t uu = lo; uu < hi; ++uu) users.push_back(static_cast<UserId>(uu));
  ForEachScoredUser(scorer, std::span<const UserId>(users), ctx,
                    std::forward<Fn>(fn));
}

/// Top-k over a dense score row restricted to the items `u` has NOT
/// rated in `train` — the "all unrated items" candidate protocol without
/// materializing a candidate list. Marks the user's rated items (plus
/// any `exclusions`, the serving layer's session deltas — ids must be
/// in range) in ctx.Flags() (kept zeroed between calls), selects through
/// the dense scan kernel into ctx.TopK(), unmarks, and returns
/// ctx.TopK(). Output is identical to SelectTopKFromScoresInto over the
/// ascending unrated, non-excluded item ids.
std::vector<ScoredItem>& SelectTopKUnrated(std::span<const double> scores,
                                           const RatingDataset& train,
                                           UserId u, size_t k,
                                           ScoringContext& ctx,
                                           std::span<const ItemId> exclusions = {});

/// Builds per-user top-N sets for all users over their unrated train items
/// ("all unrated items" candidate generation). Returns one vector of item
/// ids per user in best-first order. With a pool, users are scored in
/// kScoreBatch blocks through the models' ScoreBatchInto kernel and fanned
/// out in parallel chunks (one ScoringContext per chunk); because per-user
/// scoring is deterministic and each user writes only its own slot, the
/// output is byte-identical to the sequential path.
std::vector<std::vector<ItemId>> RecommendAllUsers(const Recommender& model,
                                                   const RatingDataset& train,
                                                   int n,
                                                   ThreadPool* pool = nullptr);

}  // namespace ganc

#endif  // GANC_RECOMMENDER_RECOMMENDER_H_
