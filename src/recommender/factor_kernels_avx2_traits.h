// Internal: the 256-bit lane traits of the AVX2 kernels — 8 user lanes
// as 2 x __m256d (fp64), 1 x __m256 (fp32), 1 x __m256i madd
// accumulator (int8). Included only by the kernel TUs compiled with AVX2
// or wider (factor_kernels_avx2.cc, factor_kernels_avx512.cc).
//
// Avx2Traits lives in an anonymous namespace on purpose: each including
// TU gets its own type, so the templates it instantiates with it have
// internal linkage and the linker can never fold the -mavx512* int8
// kernel into the -mavx2 one (or the reverse).

#ifndef GANC_RECOMMENDER_FACTOR_KERNELS_AVX2_TRAITS_H_
#define GANC_RECOMMENDER_FACTOR_KERNELS_AVX2_TRAITS_H_

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace ganc {
namespace internal {
namespace {

struct Avx2Traits {
  using F64 = __m256d;
  static constexpr size_t kRegsF64 = 2;
  static constexpr size_t kLanesF64 = 4;
  static F64 LoadF64(const double* p) { return _mm256_load_pd(p); }
  static void StoreF64(double* p, F64 v) { _mm256_store_pd(p, v); }
  static F64 BroadcastF64(double x) { return _mm256_set1_pd(x); }
  static F64 AddF64(F64 a, F64 b) { return _mm256_add_pd(a, b); }
  static F64 MulAddF64(F64 acc, F64 a, F64 b) {
    return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
  }
  static F64 ZeroF64() { return _mm256_setzero_pd(); }

  using F32 = __m256;
  static constexpr size_t kRegsF32 = 1;
  static constexpr size_t kLanesF32 = 8;
  static F32 LoadF32(const float* p) { return _mm256_load_ps(p); }
  static void StoreF32(float* p, F32 v) { _mm256_store_ps(p, v); }
  static F32 BroadcastF32(float x) { return _mm256_set1_ps(x); }
  static F32 AddF32(F32 a, F32 b) { return _mm256_add_ps(a, b); }
  static F32 MulAddF32(F32 acc, F32 a, F32 b) {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
  static F32 ZeroF32() { return _mm256_setzero_ps(); }

  using I32 = __m256i;
  static constexpr size_t kRegsI32 = 1;
  static constexpr size_t kI16PerReg = 16;  // 8 lanes x (pair of int16)
  static I32 ZeroI32() { return _mm256_setzero_si256(); }
  static I32 BroadcastPair(int32_t pair) { return _mm256_set1_epi32(pair); }
  static I32 MaddAcc(I32 acc, const int16_t* pack, I32 pair) {
    return _mm256_add_epi32(
        acc,
        _mm256_madd_epi16(
            _mm256_load_si256(reinterpret_cast<const __m256i*>(pack)), pair));
  }
  static void StoreI32(int32_t* p, I32 v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
};

}  // namespace
}  // namespace internal
}  // namespace ganc

#endif  // defined(__AVX2__)

#endif  // GANC_RECOMMENDER_FACTOR_KERNELS_AVX2_TRAITS_H_
