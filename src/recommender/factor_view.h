// Typed borrowed view of a fitted latent-factor model's parameters.
//
// PR 2 froze the view at `double`: serving scored straight off the fp64
// training tables. The view is now precision-tagged so models can hand
// the scoring engine a compact table instead:
//
//   fp64  the training-time tables, exact reference scores.
//   fp32  narrowed copies, half the resident bytes; scores drift by
//         float rounding only (each dot product accumulates in float).
//   int8  per-row affine quantization, ~8x smaller tables; scores
//         reconstruct through the closed-form expansion below and are
//         checked against the exact path by top-N overlap, not equality.
//
// The int8 scheme stores, per factor row v (length g):
//
//   center = (min + max) / 2,  scale = (max - min) / 254
//   q[f]   = clamp(round((v[f] - center) / scale), -127, 127)
//
// so v[f] ~= center + scale * q[f]. With per-row q sums precomputed at
// quantization time, a user/item dot product expands to four exact
// terms (the q-by-q dot is integer arithmetic, overflow-free for any
// realistic g):
//
//   <p, q> ~= g*cu*ci + cu*si*Sq + ci*su*Sp + su*si*sum_f(pq[f]*qq[f])
//
// DequantDot() below is that combine; every kernel variant calls the
// same inline double-precision expression, which is what makes int8
// scores bit-identical across scalar/AVX2/AVX-512 dispatch.

#ifndef GANC_RECOMMENDER_FACTOR_VIEW_H_
#define GANC_RECOMMENDER_FACTOR_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace ganc {

/// Storage type of the factor tables behind a FactorView. Values are
/// persisted in model artifacts (FORMATS.md, factor-table section) and
/// must never be renumbered.
enum class FactorPrecision : uint8_t {
  kFp64 = 1,  ///< training-time doubles (exact reference)
  kFp32 = 2,  ///< narrowed floats, 2x smaller
  kInt8 = 3,  ///< per-row affine-quantized int8, ~8x smaller
};

/// Lowercase name used by --factor-precision, GANC artifacts' error
/// messages, and the serve snapshot ("fp64" / "fp32" / "int8").
inline const char* FactorPrecisionName(FactorPrecision p) {
  switch (p) {
    case FactorPrecision::kFp64: return "fp64";
    case FactorPrecision::kFp32: return "fp32";
    case FactorPrecision::kInt8: return "int8";
  }
  return "unknown";
}

inline Result<FactorPrecision> ParseFactorPrecision(const std::string& s) {
  if (s == "fp64") return FactorPrecision::kFp64;
  if (s == "fp32") return FactorPrecision::kFp32;
  if (s == "int8") return FactorPrecision::kInt8;
  return Status::InvalidArgument("unknown factor precision '" + s +
                                 "' (expected fp64, fp32, or int8)");
}

/// Borrowed view of a fitted latent-factor model's parameters. Exactly
/// one of the per-precision pointer groups below is populated, selected
/// by `precision`; the bias terms stay fp64 at every precision (they
/// are O(|U| + |I|), the factor tables are the O((|U| + |I|) * g) cost).
struct FactorView {
  FactorPrecision precision = FactorPrecision::kFp64;

  // kFp64: |U| x g and |I| x g row-major doubles.
  const double* user_factors = nullptr;
  const double* item_factors = nullptr;

  // kFp32: same shapes, narrowed.
  const float* user_factors_f32 = nullptr;
  const float* item_factors_f32 = nullptr;

  // kInt8: quantized rows plus per-row affine parameters and q sums.
  const int8_t* user_q8 = nullptr;       ///< |U| x g
  const int8_t* item_q8 = nullptr;       ///< |I| x g
  const float* user_scale = nullptr;     ///< |U|
  const float* user_center = nullptr;    ///< |U|
  const int32_t* user_qsum = nullptr;    ///< |U|, sum_f user_q8[u][f]
  const float* item_scale = nullptr;     ///< |I|
  const float* item_center = nullptr;    ///< |I|
  const int32_t* item_qsum = nullptr;    ///< |I|

  const double* item_bias = nullptr;  ///< optional |I| (may be null)
  const double* user_base = nullptr;  ///< optional |U| offsets (may be null)
  int32_t num_items = 0;
  size_t num_factors = 0;  ///< g
};

/// The shared int8 dequantized dot-product combine: every kernel variant
/// (and the scalar single-user path) evaluates this exact expression, in
/// this operand order, in double — the integer dot `dot` is exact, so
/// int8 scores are bit-identical across all dispatch variants.
inline double DequantDot(size_t g, float user_scale, float user_center,
                         int32_t user_qsum, float item_scale,
                         float item_center, int32_t item_qsum, int32_t dot) {
  return static_cast<double>(g) * user_center * item_center +
         static_cast<double>(user_center) * item_scale * item_qsum +
         static_cast<double>(item_center) * user_scale * user_qsum +
         static_cast<double>(user_scale) * item_scale * dot;
}

}  // namespace ganc

#endif  // GANC_RECOMMENDER_FACTOR_VIEW_H_
