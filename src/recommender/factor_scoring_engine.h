// Shared scoring engine for latent-factor models (PSVD, RSVD, BPR,
// CofiR): s(u, i) = base_u + b_i + <p_u, q_i> over row-major factor
// matrices, with optional per-item bias and per-user base offset.
//
// The engine is a borrowed view over the owning model's storage —
// models construct it on the fly inside their Score* overrides, so
// there is no lifetime coupling and refitting can never dangle it.
//
// Three paths share the view (which since PR 6 is precision-typed, see
// factor_view.h):
//   ScoreOne        one (user, item) score — the scalar dot used by
//                   training-time Predict/Score call sites.
//   ScoreInto       one user, the classic scalar dot-product loop.
//   ScoreBatchInto  a user batch, routed through the runtime-dispatched
//                   kernel table (factor_kernels.h): scalar reference or
//                   the widest SIMD variant cpuid reports, pinned per
//                   process (GANC_KERNEL overrides). AVX-512 runs AVX2's
//                   fp64/fp32 kernels and its own int8 one.
//
// Parity contract: at fp64, every dispatch variant is bit-identical to
// ScoreInto (each (u, i) pair keeps one accumulator walked in factor
// order; kernel TUs compile with -ffp-contract=off). fp32 and int8
// scores are likewise bit-identical *across variants*, and track the
// fp64 path within float rounding / quantization error (pinned by the
// tolerance tier in tests/recommender/factor_precision_test.cc).

#ifndef GANC_RECOMMENDER_FACTOR_SCORING_ENGINE_H_
#define GANC_RECOMMENDER_FACTOR_SCORING_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "data/dataset.h"
#include "recommender/factor_kernels.h"
#include "recommender/factor_view.h"

namespace ganc {

/// Blocked multi-user scoring over a FactorView. Cheap to construct per
/// call; thread-safe (scratch is per-thread).
class FactorScoringEngine {
 public:
  /// Users per register block: the inner kernel runs this many
  /// independent accumulator chains per item factor broadcast. 8 is the
  /// measured sweet spot (4 ties, 16+ spills registers).
  static constexpr size_t kUserBlock = kFactorKernelUserBlock;

  explicit FactorScoringEngine(const FactorView& view) : v_(view) {}

  /// One (u, i) score at the view's precision. Bit-identical to the
  /// corresponding entry of ScoreInto.
  double ScoreOne(UserId u, ItemId i) const;

  /// Scalar path: catalog scores for one user into `out` (num_items).
  void ScoreInto(UserId u, std::span<double> out) const;

  /// Blocked path: catalog scores for every user in `users` into the
  /// batch-major `out` (users.size() * num_items; row b = users[b]).
  /// Bit-identical to calling ScoreInto per user, for every dispatch
  /// variant.
  void ScoreBatchInto(std::span<const UserId> users,
                      std::span<double> out) const;

 private:
  FactorView v_;
};

}  // namespace ganc

#endif  // GANC_RECOMMENDER_FACTOR_SCORING_ENGINE_H_
