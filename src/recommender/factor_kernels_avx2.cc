// AVX2 kernel variant: every precision on the 256-bit lane traits
// (factor_kernels_avx2_traits.h). Compiled with -mavx2 -ffp-contract=off
// and deliberately WITHOUT -mfma (CMakeLists.txt): a fused multiply-add
// rounds once where the scalar reference rounds twice, which would
// break fp64 bit-identity.

#include "recommender/factor_kernels_impl.h"

#if defined(__AVX2__)

#include "recommender/factor_kernels_avx2_traits.h"

namespace ganc {
namespace internal {

const KernelOps& Avx2KernelOps() {
  static const KernelOps ops{&DispatchF64<Avx2Traits>, &DispatchF32<Avx2Traits>,
                             &DispatchI8<Avx2Traits>};
  return ops;
}

bool Avx2KernelCompiled() { return true; }

}  // namespace internal
}  // namespace ganc

#else  // !defined(__AVX2__)

namespace ganc {
namespace internal {

const KernelOps& Avx2KernelOps() { return ScalarKernelOps(); }
bool Avx2KernelCompiled() { return false; }

}  // namespace internal
}  // namespace ganc

#endif
