// AVX-512 kernel variant: AVX2's fp64 and fp32 kernels, and its own
// int8 kernel. The int8 kernel is the same 256-bit source as AVX2's
// (factor_kernels_avx2_traits.h); compiled with -mavx512f -mavx512bw
// -mavx512vl, GCC vectorizes the per-item 8-lane DequantDot combine
// that the -mavx2 build leaves scalar, which makes it about 2x faster
// at full blocks. A __m512d fp64 kernel and an AVX-512 build of the
// fp32 kernel won no cell of the kernel census (docs/ARCHITECTURE.md)
// and were removed.
// Compiled with -ffp-contract=off and no -mfma (CMakeLists.txt).

#include "recommender/factor_kernels_impl.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include "recommender/factor_kernels_avx2_traits.h"

namespace ganc {
namespace internal {

const KernelOps& Avx512KernelOps() {
  static const KernelOps ops{Avx2KernelOps().batch_f64,
                             Avx2KernelOps().batch_f32,
                             &DispatchI8<Avx2Traits>};
  return ops;
}

bool Avx512KernelCompiled() { return true; }

}  // namespace internal
}  // namespace ganc

#else  // no AVX-512 at compile time

namespace ganc {
namespace internal {

const KernelOps& Avx512KernelOps() { return ScalarKernelOps(); }
bool Avx512KernelCompiled() { return false; }

}  // namespace internal
}  // namespace ganc

#endif
