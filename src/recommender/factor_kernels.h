// Runtime-dispatched batch scoring kernels for FactorScoringEngine.
//
// The batch path ScoreBatchInto has three kernel variants — scalar,
// AVX2, AVX-512 — each in its own translation unit compiled with
// exactly the ISA flags it needs (CMakeLists.txt sets per-source
// options; there is no global -march). A variant is a table of one
// kernel per precision, and each table holds only kernels that win
// their cells of the kernel census (docs/ARCHITECTURE.md,
// "Hardware-adaptive scoring kernels"):
//
//   scalar  fp64=scalar fp32=scalar int8=scalar   (reference, fallback)
//   avx2    fp64=avx2   fp32=avx2   int8=avx2
//   avx512  fp64=avx2   fp32=avx2   int8=avx512
//
// Dispatch pins one variant per process at first use: the widest one
// that is compiled in and that cpuid reports the CPU runs. A
// GANC_KERNEL=scalar|avx2|avx512 environment variable pins that variant
// instead (CI replays the parity suites under each); an unknown name, or
// one the host cannot run, warns and falls back to cpuid.
//
// Every variant is bit-identical to the scalar reference at every
// precision: fp64/fp32 kernels vectorize across the 8-lane user block
// (each SIMD lane replays the scalar per-user accumulation sequence;
// the kernel TUs are compiled with -ffp-contract=off so no variant
// fuses the mul+add the scalar path keeps separate), and int8 kernels
// compute an exact integer dot before the shared DequantDot combine.

#ifndef GANC_RECOMMENDER_FACTOR_KERNELS_H_
#define GANC_RECOMMENDER_FACTOR_KERNELS_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "recommender/factor_view.h"
#include "util/status.h"

namespace ganc {

/// Users per register block shared by every kernel variant (and re-
/// exported as FactorScoringEngine::kUserBlock / kScoreBatch).
inline constexpr size_t kFactorKernelUserBlock = 8;

/// In order of width: dispatch by cpuid takes the last supported one.
enum class KernelVariant : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

inline constexpr size_t kNumKernelVariants = 3;

/// Lowercase name as accepted by GANC_KERNEL ("scalar", "avx2", ...).
const char* KernelVariantName(KernelVariant v);
Result<KernelVariant> ParseKernelVariant(const std::string& s);

/// One batch-scoring entry point: scores `users` into batch-major `out`
/// (users.size() x view.num_items). The precision-matching table slot
/// is chosen by the engine from view.precision.
using BatchKernelFn = void (*)(const FactorView& view,
                               std::span<const UserId> users,
                               std::span<double> out);

/// A variant's kernel set, one entry per FactorPrecision.
struct KernelOps {
  BatchKernelFn batch_f64 = nullptr;
  BatchKernelFn batch_f32 = nullptr;
  BatchKernelFn batch_i8 = nullptr;
};

/// Per-variant tables. Each lives in its own TU; on builds/targets where
/// a variant's ISA is unavailable at compile time the accessor returns
/// the scalar table (and KernelVariantSupported reports false).
const KernelOps& KernelOpsFor(KernelVariant v);

/// True when the variant was compiled with its ISA *and* cpuid reports
/// the CPU runs it. kScalar is always supported.
bool KernelVariantSupported(KernelVariant v);

/// The supported variants, in enum order (always starts with kScalar).
std::vector<KernelVariant> SupportedKernelVariants();

/// The pinned dispatch choice (env override or the widest supported
/// variant; selected once per process on first call, then constant).
KernelVariant ActiveKernelVariant();
const KernelOps& ActiveKernelOps();

/// How the active variant was chosen: "env" (GANC_KERNEL), "cpuid"
/// (the widest supported variant), or "forced" (ForceKernelVariant).
const char* ActiveKernelSelection();

/// Re-pins dispatch to `v` (tests/bench iterate variants in-process).
/// Fails without changing the active variant when `v` is unsupported.
Status ForceKernelVariant(KernelVariant v);

/// Drops any pinned choice; the next ActiveKernel* call re-runs env /
/// cpuid selection.
void ResetKernelDispatch();

}  // namespace ganc

#endif  // GANC_RECOMMENDER_FACTOR_KERNELS_H_
