// Dispatch suite for the runtime-selected SIMD scoring kernels: every
// host-supported variant (scalar, AVX2, AVX-512) must produce
// bit-identical batch scores at every factor precision — fp64/fp32
// because each SIMD lane replays the scalar per-user accumulation
// sequence with contraction disabled, int8 because the integer dot is
// exact and every variant shares the DequantDot combine.

#include "recommender/factor_kernels.h"

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/bpr.h"
#include "recommender/cofirank.h"
#include "recommender/factor_scoring_engine.h"
#include "recommender/factor_store.h"
#include "recommender/psvd.h"
#include "recommender/rsvd.h"
#include "recommender/scoring_context.h"
#include "util/aligned.h"

namespace ganc {
namespace {

static_assert(kScoringAlignment == 64,
              "scoring buffers are contracted to cache-line alignment");
static_assert(FactorScoringEngine::kUserBlock == kFactorKernelUserBlock,
              "engine block size must match the kernel block size");

// Restores env/cpuid selection after each test that pins a variant.
struct DispatchGuard {
  ~DispatchGuard() { ResetKernelDispatch(); }
};

// Deterministic mixed-sign fill (no std:: RNG so the expected values
// never depend on the library implementation).
double Fill(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return (static_cast<double>((*state >> 16) & 0xFFFF) / 65536.0 - 0.5) * 2.5;
}

struct SyntheticFactors {
  FactorStore store;
  std::vector<double> item_bias;
  std::vector<double> user_base;
  int32_t num_users = 0;
  int32_t num_items = 0;

  FactorView View(bool with_bias, bool with_base) const {
    FactorView v;
    store.BindView(&v);
    v.item_bias = with_bias ? item_bias.data() : nullptr;
    v.user_base = with_base ? user_base.data() : nullptr;
    v.num_items = num_items;
    return v;
  }
};

SyntheticFactors MakeFactors(int32_t nu, int32_t ni, size_t g,
                             FactorPrecision precision) {
  SyntheticFactors f;
  f.num_users = nu;
  f.num_items = ni;
  uint64_t state = 0x9e3779b97f4a7c15ULL + g;
  std::vector<double> p(static_cast<size_t>(nu) * g);
  std::vector<double> q(static_cast<size_t>(ni) * g);
  for (double& v : p) v = Fill(&state);
  for (double& v : q) v = Fill(&state);
  f.store.AdoptFp64(std::move(p), std::move(q), static_cast<size_t>(nu),
                    static_cast<size_t>(ni), g);
  EXPECT_TRUE(f.store.SetPrecision(precision).ok());
  f.item_bias.resize(static_cast<size_t>(ni));
  f.user_base.resize(static_cast<size_t>(nu));
  for (double& v : f.item_bias) v = Fill(&state);
  for (double& v : f.user_base) v = Fill(&state);
  return f;
}

std::vector<UserId> RaggedBatch(int32_t nu, size_t batch_size) {
  std::vector<UserId> users;
  for (size_t b = 0; b < batch_size; ++b) {
    // Start near the end so large batches wrap into ragged blocks.
    users.push_back(static_cast<UserId>((static_cast<size_t>(nu) - 3 + b) %
                                        static_cast<size_t>(nu)));
  }
  return users;
}

std::vector<double> ScoreWith(KernelVariant v, const FactorView& view,
                              std::span<const UserId> users) {
  EXPECT_TRUE(ForceKernelVariant(v).ok()) << KernelVariantName(v);
  std::vector<double> out(users.size() *
                          static_cast<size_t>(view.num_items));
  FactorScoringEngine(view).ScoreBatchInto(users, out);
  return out;
}

TEST(FactorKernelsTest, NamesRoundTripAndParseRejectsUnknown) {
  for (size_t i = 0; i < kNumKernelVariants; ++i) {
    const KernelVariant v = static_cast<KernelVariant>(i);
    const Result<KernelVariant> parsed = ParseKernelVariant(
        KernelVariantName(v));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(ParseKernelVariant("avx1024").ok());
  EXPECT_FALSE(ParseKernelVariant("").ok());
}

TEST(FactorKernelsTest, ScalarIsAlwaysSupportedAndListedFirst) {
  EXPECT_TRUE(KernelVariantSupported(KernelVariant::kScalar));
  const std::vector<KernelVariant> supported = SupportedKernelVariants();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), KernelVariant::kScalar);
}

TEST(FactorKernelsTest, ForceRejectsUnsupportedVariantsAndKeepsActive) {
  DispatchGuard guard;
  ASSERT_TRUE(ForceKernelVariant(KernelVariant::kScalar).ok());
  for (size_t i = 0; i < kNumKernelVariants; ++i) {
    const KernelVariant v = static_cast<KernelVariant>(i);
    if (KernelVariantSupported(v)) continue;
    EXPECT_FALSE(ForceKernelVariant(v).ok()) << KernelVariantName(v);
    EXPECT_EQ(ActiveKernelVariant(), KernelVariant::kScalar);
  }
  EXPECT_STREQ(ActiveKernelSelection(), "forced");
}

TEST(FactorKernelsTest, EnvOverridePinsVariant) {
  if (!KernelVariantSupported(KernelVariant::kAvx2)) {
    GTEST_SKIP() << "host cannot run avx2";
  }
  DispatchGuard guard;
  ASSERT_EQ(setenv("GANC_KERNEL", "avx2", /*overwrite=*/1), 0);
  ResetKernelDispatch();
  EXPECT_EQ(ActiveKernelVariant(), KernelVariant::kAvx2);
  EXPECT_STREQ(ActiveKernelSelection(), "env");
  ASSERT_EQ(unsetenv("GANC_KERNEL"), 0);
}

TEST(FactorKernelsTest, CpuidSelectsWidestSupportedVariant) {
  DispatchGuard guard;
  ASSERT_EQ(unsetenv("GANC_KERNEL"), 0);  // CI exports it for parity runs
  ResetKernelDispatch();
  EXPECT_EQ(ActiveKernelVariant(), SupportedKernelVariants().back());
  EXPECT_STREQ(ActiveKernelSelection(), "cpuid");
}

TEST(FactorKernelsTest, UnknownEnvVariantWarnsAndFallsBackToCpuid) {
  DispatchGuard guard;
  ASSERT_EQ(setenv("GANC_KERNEL", "sse2", /*overwrite=*/1), 0);
  ResetKernelDispatch();
  testing::internal::CaptureStderr();
  const KernelVariant active = ActiveKernelVariant();
  const std::string warning = testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("GANC_KERNEL"), 0);
  EXPECT_EQ(active, SupportedKernelVariants().back());
  EXPECT_STREQ(ActiveKernelSelection(), "cpuid");
  EXPECT_NE(warning.find("GANC_KERNEL=sse2"), std::string::npos) << warning;
}

// The census table (docs/ARCHITECTURE.md): AVX-512 keeps only its own
// int8 kernel and runs AVX2's fp64 and fp32 kernels.
TEST(FactorKernelsTest, Avx512TableRunsAvx2FloatKernelsAndOwnInt8) {
  const KernelOps& avx2 = KernelOpsFor(KernelVariant::kAvx2);
  const KernelOps& avx512 = KernelOpsFor(KernelVariant::kAvx512);
  if (&avx512 == &KernelOpsFor(KernelVariant::kScalar)) {
    GTEST_SKIP() << "avx512 kernels not compiled for this target";
  }
  EXPECT_EQ(avx512.batch_f64, avx2.batch_f64);
  EXPECT_EQ(avx512.batch_f32, avx2.batch_f32);
  EXPECT_NE(avx512.batch_i8, avx2.batch_i8);
  EXPECT_NE(avx512.batch_i8, KernelOpsFor(KernelVariant::kScalar).batch_i8);
}

// Full blocks, every ragged single block, a ragged tail after a full
// block, and many full blocks.
constexpr size_t kBatchSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 13, 64};

// The tentpole contract on synthetic tables: every supported variant,
// every precision, every bias combination, factor counts that exercise
// full registers and remainders, batch sizes that exercise full and
// ragged user blocks — all bit-identical to the scalar reference.
TEST(FactorKernelsTest, AllVariantsBitIdenticalToScalarOnSyntheticViews) {
  DispatchGuard guard;
  const std::vector<KernelVariant> variants = SupportedKernelVariants();
  const int32_t nu = 21;
  const int32_t ni = 57;
  for (const FactorPrecision precision :
       {FactorPrecision::kFp64, FactorPrecision::kFp32,
        FactorPrecision::kInt8}) {
    for (const size_t g : {1u, 7u, 8u, 48u}) {
      const SyntheticFactors f = MakeFactors(nu, ni, g, precision);
      for (const bool with_bias : {false, true}) {
        for (const bool with_base : {false, true}) {
          const FactorView view = f.View(with_bias, with_base);
          for (const size_t batch : kBatchSizes) {
            const std::vector<UserId> users = RaggedBatch(nu, batch);
            const std::vector<double> reference =
                ScoreWith(KernelVariant::kScalar, view, users);
            for (const KernelVariant v : variants) {
              if (v == KernelVariant::kScalar) continue;
              const std::vector<double> scores = ScoreWith(v, view, users);
              ASSERT_EQ(reference.size(), scores.size());
              for (size_t i = 0; i < reference.size(); ++i) {
                ASSERT_EQ(reference[i], scores[i])
                    << KernelVariantName(v) << " precision "
                    << FactorPrecisionName(precision) << " g=" << g
                    << " bias=" << with_bias << " base=" << with_base
                    << " batch=" << batch << " index " << i;
              }
            }
          }
        }
      }
    }
  }
}

// Same contract on real fitted models (PSVD/RSVD/BPR/CofiR), which also
// pins the single-user ScoreInto path against the dispatched batch path.
TEST(FactorKernelsTest, FittedModelsBitIdenticalAcrossVariants) {
  DispatchGuard guard;
  SyntheticSpec spec = TinySpec();
  spec.num_users = 60;
  spec.num_items = 110;
  auto data = GenerateSynthetic(spec);
  ASSERT_TRUE(data.ok());
  const RatingDataset& train = *data;
  const size_t ni = static_cast<size_t>(train.num_items());
  const std::vector<KernelVariant> variants = SupportedKernelVariants();

  for (const FactorPrecision precision :
       {FactorPrecision::kFp64, FactorPrecision::kFp32,
        FactorPrecision::kInt8}) {
    std::vector<std::unique_ptr<Recommender>> models;
    models.push_back(
        std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 13}));
    models.push_back(std::make_unique<RsvdRecommender>(RsvdConfig{
        .num_factors = 8, .num_epochs = 3, .use_biases = true}));
    models.push_back(std::make_unique<BprRecommender>(
        BprConfig{.num_factors = 8, .num_epochs = 3}));
    models.push_back(std::make_unique<CofiRecommender>(
        CofiConfig{.num_factors = 8, .num_epochs = 3}));
    for (auto& model : models) {
      ASSERT_TRUE(model->Fit(train).ok()) << model->name();
      ASSERT_TRUE(model->SetFactorPrecision(precision).ok()) << model->name();
      for (const size_t batch_size : kBatchSizes) {
        const std::vector<UserId> users =
            RaggedBatch(train.num_users(), batch_size);
        std::vector<double> reference;
        for (const KernelVariant v : variants) {
          ASSERT_TRUE(ForceKernelVariant(v).ok());
          std::vector<double> batch(users.size() * ni);
          model->ScoreBatchInto(users, batch);
          if (v == KernelVariant::kScalar) {
            reference = batch;
            // The dispatched batch rows must equal the (non-dispatched)
            // single-user path bit-for-bit at every precision.
            std::vector<double> single(ni);
            for (size_t b = 0; b < users.size(); ++b) {
              model->ScoreInto(users[b], single);
              for (size_t i = 0; i < ni; ++i) {
                ASSERT_EQ(single[i], batch[b * ni + i])
                    << model->name() << " precision "
                    << FactorPrecisionName(precision) << " user " << users[b]
                    << " item " << i;
              }
            }
            continue;
          }
          ASSERT_EQ(reference.size(), batch.size());
          for (size_t i = 0; i < reference.size(); ++i) {
            ASSERT_EQ(reference[i], batch[i])
                << model->name() << " precision "
                << FactorPrecisionName(precision) << " variant "
                << KernelVariantName(v) << " batch " << batch_size
                << " index " << i;
          }
        }
      }
    }
  }
}

// Satellite: the kernels may assume ScoringContext hands out 64-byte
// aligned score rows.
TEST(FactorKernelsTest, ScoringContextBuffersAreCacheLineAligned) {
  ScoringContext ctx;
  for (const size_t n : {1u, 8u, 63u, 1024u}) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(ctx.Scores(n).data()) %
                  kScoringAlignment,
              0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(ctx.Buffer(1, n).data()) %
                  kScoringAlignment,
              0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(ctx.BatchScores(n * 8).data()) %
                  kScoringAlignment,
              0u);
  }
  AlignedVector<double> v(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kScoringAlignment, 0u);
}

}  // namespace
}  // namespace ganc
