// Internal: shared kernel templates + per-variant accessors for the
// factor kernel TUs (factor_kernels*.cc). Not part of the public API.
//
// The SIMD variants share one template per precision, parameterized on
// a traits struct that maps 8 user lanes onto the ISA's registers
// (factor_kernels_avx2_traits.h). The templates are instantiated only
// inside the variant TUs, which are the only TUs compiled with the
// matching ISA flags (see CMakeLists.txt) — this header itself contains
// no intrinsics.
//
// Bit-identity contract (vs the scalar reference kernel):
//   fp64/fp32  each SIMD lane replays one user's scalar accumulation
//              sequence exactly: same bias init, then one mul+add per
//              factor in factor order. The kernel TUs compile with
//              -ffp-contract=off so no variant fuses what the scalar
//              path rounds twice.
//   int8       the q-by-q dot is integer (exact, order-free); the only
//              float math is the shared DequantDot combine, evaluated
//              by every variant through the same inline expression.

#ifndef GANC_RECOMMENDER_FACTOR_KERNELS_IMPL_H_
#define GANC_RECOMMENDER_FACTOR_KERNELS_IMPL_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "recommender/factor_kernels.h"
#include "util/aligned.h"

namespace ganc {
namespace internal {

// Per-variant tables, one per TU. The accessors exist on every build;
// when a TU is compiled without its ISA it returns the scalar table and
// reports Compiled() == false (dispatch then never selects it).
const KernelOps& ScalarKernelOps();
const KernelOps& Avx2KernelOps();
const KernelOps& Avx512KernelOps();
bool Avx2KernelCompiled();
bool Avx512KernelCompiled();

inline constexpr size_t kU = kFactorKernelUserBlock;

// Pack scratch, reused across calls per thread; 64-byte aligned so each
// packed row starts on a vector-load boundary (fp64 rows are 64 bytes,
// fp32 and int16-pair rows 32 bytes).
inline AlignedVector<double>& PackScratchF64() {
  thread_local AlignedVector<double> s;
  return s;
}
inline AlignedVector<float>& PackScratchF32() {
  thread_local AlignedVector<float> s;
  return s;
}
inline AlignedVector<int16_t>& PackScratchI16() {
  thread_local AlignedVector<int16_t> s;
  return s;
}

// The bias-term initialization shared by every int8 kernel (and, in its
// float form, every fp32 kernel): compile-time folded like the fp64
// reference so each combo keeps the scalar path's evaluation order.
template <bool kHasItemBias, bool kHasUserBase>
inline double BiasTermF64(double base, double bi) {
  if constexpr (kHasItemBias && kHasUserBase) return base + bi;
  if constexpr (kHasItemBias) return bi;
  if constexpr (kHasUserBase) return base;
  return 0.0;
}

template <bool kHasItemBias, bool kHasUserBase>
inline float BiasTermF32(float base, float bi) {
  if constexpr (kHasItemBias && kHasUserBase) return base + bi;
  if constexpr (kHasItemBias) return bi;
  if constexpr (kHasUserBase) return base;
  return 0.0f;
}

// ---------------------------------------------------------------------------
// fp64: vectorized across the 8 user lanes. The block's user rows are
// packed transposed ([factor][lane], a pure copy) so the inner loop is
// one aligned lane-vector load + broadcast q_i[f] + mul + add — per
// lane, exactly the scalar kernel's acc[b] += pu[b][f] * qf.

template <typename T, bool kHasItemBias, bool kHasUserBase>
void BatchF64(const FactorView& v, std::span<const UserId> users,
              std::span<double> out) {
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const size_t batch = users.size();
  AlignedVector<double>& pack = PackScratchF64();
  pack.resize(g * kU);
  alignas(64) double lanes[kU];
  alignas(64) double base[kU];

  for (size_t b0 = 0; b0 < batch; b0 += kU) {
    const size_t bn = std::min(kU, batch - b0);
    double* o[kU];
    for (size_t b = 0; b < kU; ++b) {
      const size_t lane = b < bn ? b : 0;
      const size_t ub = static_cast<size_t>(users[b0 + lane]);
      const double* pu = v.user_factors + ub * g;
      for (size_t f = 0; f < g; ++f) pack[f * kU + b] = pu[f];
      o[b] = out.data() + (b0 + lane) * ni;
      base[b] = kHasUserBase ? v.user_base[ub] : 0.0;
    }
    typename T::F64 basev[T::kRegsF64];
    if constexpr (kHasUserBase) {
      for (size_t r = 0; r < T::kRegsF64; ++r) {
        basev[r] = T::LoadF64(base + r * T::kLanesF64);
      }
    }
    for (size_t i = 0; i < ni; ++i) {
      const double* qi = v.item_factors + i * g;
      typename T::F64 acc[T::kRegsF64];
      if constexpr (kHasItemBias && kHasUserBase) {
        const typename T::F64 bi = T::BroadcastF64(v.item_bias[i]);
        for (size_t r = 0; r < T::kRegsF64; ++r) acc[r] = T::AddF64(basev[r], bi);
      } else if constexpr (kHasItemBias) {
        const typename T::F64 bi = T::BroadcastF64(v.item_bias[i]);
        for (size_t r = 0; r < T::kRegsF64; ++r) acc[r] = bi;
      } else if constexpr (kHasUserBase) {
        for (size_t r = 0; r < T::kRegsF64; ++r) acc[r] = basev[r];
      } else {
        for (size_t r = 0; r < T::kRegsF64; ++r) acc[r] = T::ZeroF64();
      }
      for (size_t f = 0; f < g; ++f) {
        const typename T::F64 qf = T::BroadcastF64(qi[f]);
        const double* pf = pack.data() + f * kU;
        for (size_t r = 0; r < T::kRegsF64; ++r) {
          acc[r] = T::MulAddF64(acc[r], T::LoadF64(pf + r * T::kLanesF64), qf);
        }
      }
      for (size_t r = 0; r < T::kRegsF64; ++r) {
        T::StoreF64(lanes + r * T::kLanesF64, acc[r]);
      }
      for (size_t b = 0; b < bn; ++b) o[b][i] = lanes[b];
    }
  }
}

// ---------------------------------------------------------------------------
// fp32: same shape as fp64 with float lanes; biases narrow to float
// once (per block for user bases, per item for item biases) and the
// final lane value widens back to double for the output row.

template <typename T, bool kHasItemBias, bool kHasUserBase>
void BatchF32(const FactorView& v, std::span<const UserId> users,
              std::span<double> out) {
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const size_t batch = users.size();
  AlignedVector<float>& pack = PackScratchF32();
  pack.resize(g * kU);
  alignas(64) float lanes[kU];
  alignas(64) float base[kU];

  for (size_t b0 = 0; b0 < batch; b0 += kU) {
    const size_t bn = std::min(kU, batch - b0);
    double* o[kU];
    for (size_t b = 0; b < kU; ++b) {
      const size_t lane = b < bn ? b : 0;
      const size_t ub = static_cast<size_t>(users[b0 + lane]);
      const float* pu = v.user_factors_f32 + ub * g;
      for (size_t f = 0; f < g; ++f) pack[f * kU + b] = pu[f];
      o[b] = out.data() + (b0 + lane) * ni;
      base[b] = kHasUserBase ? static_cast<float>(v.user_base[ub]) : 0.0f;
    }
    typename T::F32 basev[T::kRegsF32];
    if constexpr (kHasUserBase) {
      for (size_t r = 0; r < T::kRegsF32; ++r) {
        basev[r] = T::LoadF32(base + r * T::kLanesF32);
      }
    }
    for (size_t i = 0; i < ni; ++i) {
      const float* qi = v.item_factors_f32 + i * g;
      typename T::F32 acc[T::kRegsF32];
      if constexpr (kHasItemBias && kHasUserBase) {
        const typename T::F32 bi =
            T::BroadcastF32(static_cast<float>(v.item_bias[i]));
        for (size_t r = 0; r < T::kRegsF32; ++r) acc[r] = T::AddF32(basev[r], bi);
      } else if constexpr (kHasItemBias) {
        const typename T::F32 bi =
            T::BroadcastF32(static_cast<float>(v.item_bias[i]));
        for (size_t r = 0; r < T::kRegsF32; ++r) acc[r] = bi;
      } else if constexpr (kHasUserBase) {
        for (size_t r = 0; r < T::kRegsF32; ++r) acc[r] = basev[r];
      } else {
        for (size_t r = 0; r < T::kRegsF32; ++r) acc[r] = T::ZeroF32();
      }
      for (size_t f = 0; f < g; ++f) {
        const typename T::F32 qf = T::BroadcastF32(qi[f]);
        const float* pf = pack.data() + f * kU;
        for (size_t r = 0; r < T::kRegsF32; ++r) {
          acc[r] = T::MulAddF32(acc[r], T::LoadF32(pf + r * T::kLanesF32), qf);
        }
      }
      for (size_t r = 0; r < T::kRegsF32; ++r) {
        T::StoreF32(lanes + r * T::kLanesF32, acc[r]);
      }
      for (size_t b = 0; b < bn; ++b) {
        o[b][i] = static_cast<double>(lanes[b]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// int8: the block's user rows are packed as sign-extended int16 factor
// *pairs* ([pair][lane][2]) so the inner loop is one broadcast of the
// item's (q[2p], q[2p+1]) pair + one multiply-add-adjacent (madd) into
// int32 accumulators. Odd g pads the trailing pair with zero on both
// sides, which contributes exactly 0. The integer dot is exact; the
// double combine is the shared DequantDot expression.

template <typename T, bool kHasItemBias, bool kHasUserBase>
void BatchI8(const FactorView& v, std::span<const UserId> users,
             std::span<double> out) {
  const size_t g = v.num_factors;
  const size_t ni = static_cast<size_t>(v.num_items);
  const size_t batch = users.size();
  const size_t npairs = (g + 1) / 2;
  AlignedVector<int16_t>& pack = PackScratchI16();
  pack.resize(npairs * kU * 2);
  alignas(64) int32_t dlanes[kU];

  for (size_t b0 = 0; b0 < batch; b0 += kU) {
    const size_t bn = std::min(kU, batch - b0);
    double* o[kU];
    double base[kU];
    float su[kU];
    float cu[kU];
    int32_t sp[kU];
    for (size_t b = 0; b < kU; ++b) {
      const size_t lane = b < bn ? b : 0;
      const size_t ub = static_cast<size_t>(users[b0 + lane]);
      const int8_t* pq = v.user_q8 + ub * g;
      for (size_t p = 0; p < npairs; ++p) {
        pack[p * 2 * kU + 2 * b] = pq[2 * p];
        pack[p * 2 * kU + 2 * b + 1] =
            (2 * p + 1 < g) ? static_cast<int16_t>(pq[2 * p + 1]) : int16_t{0};
      }
      o[b] = out.data() + (b0 + lane) * ni;
      base[b] = kHasUserBase ? v.user_base[ub] : 0.0;
      su[b] = v.user_scale[ub];
      cu[b] = v.user_center[ub];
      sp[b] = v.user_qsum[ub];
    }
    for (size_t i = 0; i < ni; ++i) {
      const int8_t* qq = v.item_q8 + i * g;
      typename T::I32 acc[T::kRegsI32];
      for (size_t r = 0; r < T::kRegsI32; ++r) acc[r] = T::ZeroI32();
      for (size_t p = 0; p < npairs; ++p) {
        const int16_t q0 = qq[2 * p];
        const int16_t q1 = (2 * p + 1 < g) ? qq[2 * p + 1] : int16_t{0};
        const int32_t pair = static_cast<int32_t>(
            static_cast<uint32_t>(static_cast<uint16_t>(q0)) |
            (static_cast<uint32_t>(static_cast<uint16_t>(q1)) << 16));
        const typename T::I32 bc = T::BroadcastPair(pair);
        const int16_t* row = pack.data() + p * 2 * kU;
        for (size_t r = 0; r < T::kRegsI32; ++r) {
          acc[r] = T::MaddAcc(acc[r], row + r * T::kI16PerReg, bc);
        }
      }
      for (size_t r = 0; r < T::kRegsI32; ++r) {
        T::StoreI32(dlanes + r * (T::kI16PerReg / 2), acc[r]);
      }
      const double bi = kHasItemBias ? v.item_bias[i] : 0.0;
      const float si = v.item_scale[i];
      const float ci = v.item_center[i];
      const int32_t sq = v.item_qsum[i];
      for (size_t b = 0; b < bn; ++b) {
        o[b][i] = BiasTermF64<kHasItemBias, kHasUserBase>(base[b], bi) +
                  DequantDot(g, su[b], cu[b], sp[b], si, ci, sq, dlanes[b]);
      }
    }
  }
}

// Folds the runtime bias pointers into the compile-time kernel combos,
// mirroring the scalar reference's dispatch.
template <typename T>
void DispatchF64(const FactorView& v, std::span<const UserId> users,
                 std::span<double> out) {
  if (v.item_bias) {
    if (v.user_base) return BatchF64<T, true, true>(v, users, out);
    return BatchF64<T, true, false>(v, users, out);
  }
  if (v.user_base) return BatchF64<T, false, true>(v, users, out);
  return BatchF64<T, false, false>(v, users, out);
}

template <typename T>
void DispatchF32(const FactorView& v, std::span<const UserId> users,
                 std::span<double> out) {
  if (v.item_bias) {
    if (v.user_base) return BatchF32<T, true, true>(v, users, out);
    return BatchF32<T, true, false>(v, users, out);
  }
  if (v.user_base) return BatchF32<T, false, true>(v, users, out);
  return BatchF32<T, false, false>(v, users, out);
}

template <typename T>
void DispatchI8(const FactorView& v, std::span<const UserId> users,
                std::span<double> out) {
  if (v.item_bias) {
    if (v.user_base) return BatchI8<T, true, true>(v, users, out);
    return BatchI8<T, true, false>(v, users, out);
  }
  if (v.user_base) return BatchI8<T, false, true>(v, users, out);
  return BatchI8<T, false, false>(v, users, out);
}

}  // namespace internal
}  // namespace ganc

#endif  // GANC_RECOMMENDER_FACTOR_KERNELS_IMPL_H_
