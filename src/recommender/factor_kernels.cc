// Kernel dispatch: cpuid selection and the GANC_KERNEL override. See
// factor_kernels.h for the selection contract.

#include "recommender/factor_kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "recommender/factor_kernels_impl.h"

namespace ganc {

namespace {

struct DispatchState {
  std::mutex mu;
  bool selected = false;
  KernelVariant active = KernelVariant::kScalar;
  const char* source = "cpuid";
  // Fast path: ScoreBatchInto reads this without the lock once selected.
  std::atomic<const KernelOps*> active_ops{nullptr};
};

DispatchState& State() {
  static DispatchState s;
  return s;
}

bool VariantCompiled(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return true;
    case KernelVariant::kAvx2: return internal::Avx2KernelCompiled();
    case KernelVariant::kAvx512: return internal::Avx512KernelCompiled();
  }
  return false;
}

bool CpuRuns(KernelVariant v) {
#if defined(__x86_64__) || defined(__i386__)
  switch (v) {
    case KernelVariant::kScalar:
      return true;
    case KernelVariant::kAvx2:
      return __builtin_cpu_supports("avx2");
    case KernelVariant::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return v == KernelVariant::kScalar;
#endif
}

// Selection under s.mu: a runnable GANC_KERNEL first, else the widest
// supported variant.
void SelectLocked(DispatchState& s) {
  s.active = SupportedKernelVariants().back();
  s.source = "cpuid";
  const char* env = std::getenv("GANC_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    Result<KernelVariant> parsed = ParseKernelVariant(env);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "ganc: ignoring GANC_KERNEL=%s (%s); selecting by cpuid\n",
                   env, parsed.status().message().c_str());
    } else if (!KernelVariantSupported(*parsed)) {
      std::fprintf(stderr,
                   "ganc: GANC_KERNEL=%s is not runnable on this host; "
                   "selecting by cpuid\n",
                   env);
    } else {
      s.active = *parsed;
      s.source = "env";
    }
  }
  s.selected = true;
  s.active_ops.store(&KernelOpsFor(s.active), std::memory_order_release);
}

void EnsureSelected(DispatchState& s) {
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.selected) SelectLocked(s);
}

}  // namespace

const char* KernelVariantName(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return "scalar";
    case KernelVariant::kAvx2: return "avx2";
    case KernelVariant::kAvx512: return "avx512";
  }
  return "unknown";
}

Result<KernelVariant> ParseKernelVariant(const std::string& s) {
  if (s == "scalar") return KernelVariant::kScalar;
  if (s == "avx2") return KernelVariant::kAvx2;
  if (s == "avx512") return KernelVariant::kAvx512;
  return Status::InvalidArgument(
      "unknown kernel variant '" + s +
      "' (expected scalar, avx2, or avx512)");
}

const KernelOps& KernelOpsFor(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return internal::ScalarKernelOps();
    case KernelVariant::kAvx2: return internal::Avx2KernelOps();
    case KernelVariant::kAvx512: return internal::Avx512KernelOps();
  }
  return internal::ScalarKernelOps();
}

bool KernelVariantSupported(KernelVariant v) {
  return VariantCompiled(v) && CpuRuns(v);
}

std::vector<KernelVariant> SupportedKernelVariants() {
  std::vector<KernelVariant> out;
  for (size_t idx = 0; idx < kNumKernelVariants; ++idx) {
    const KernelVariant v = static_cast<KernelVariant>(idx);
    if (KernelVariantSupported(v)) out.push_back(v);
  }
  return out;
}

KernelVariant ActiveKernelVariant() {
  DispatchState& s = State();
  EnsureSelected(s);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.active;
}

const KernelOps& ActiveKernelOps() {
  DispatchState& s = State();
  const KernelOps* ops = s.active_ops.load(std::memory_order_acquire);
  if (ops != nullptr) return *ops;
  EnsureSelected(s);
  return *s.active_ops.load(std::memory_order_acquire);
}

const char* ActiveKernelSelection() {
  DispatchState& s = State();
  EnsureSelected(s);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.source;
}

Status ForceKernelVariant(KernelVariant v) {
  if (!KernelVariantSupported(v)) {
    return Status::InvalidArgument(
        std::string("kernel variant '") + KernelVariantName(v) +
        "' is not runnable on this host");
  }
  DispatchState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.active = v;
  s.source = "forced";
  s.selected = true;
  s.active_ops.store(&KernelOpsFor(v), std::memory_order_release);
  return Status::OK();
}

void ResetKernelDispatch() {
  DispatchState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.selected = false;
  s.active_ops.store(nullptr, std::memory_order_release);
}

}  // namespace ganc
