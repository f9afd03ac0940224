#include "util/kde.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "util/stats.h"
#include "util/thread_pool.h"

namespace ganc {
namespace {

std::vector<double> GaussianSample(size_t n, double mean, double sd,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.Normal(mean, sd);
  return out;
}

std::vector<double> BimodalSample() {
  std::vector<double> sample = GaussianSample(1000, 0.2, 0.04, 8);
  const std::vector<double> second = GaussianSample(1000, 0.8, 0.04, 9);
  sample.insert(sample.end(), second.begin(), second.end());
  return sample;
}

// The oracle: the exact O(n^2) weights KdeProportionalSample drew from
// before the binned KDE, max(Pdf(v), 1e-12) per value as it computed
// them (serially; its pool split did not change the bits).
std::vector<double> ExactKdeWeights(const std::vector<double>& values) {
  Result<KernelDensity> kde = KernelDensity::Fit(values);
  EXPECT_TRUE(kde.ok());
  std::vector<double> weights(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    weights[i] = std::max(kde->Pdf(values[i]), 1e-12);
  }
  return weights;
}

// The weights KdeProportionalSample draws from.
std::vector<double> BinnedKdeWeights(const std::vector<double>& values) {
  Result<KernelDensity> kde = KernelDensity::Fit(values);
  EXPECT_TRUE(kde.ok());
  std::vector<double> weights =
      BinnedKdeDensities(values, kde->bandwidth());
  for (double& w : weights) w = std::max(w, 1e-12);
  return weights;
}

double MaxRelativeError(const std::vector<double>& approx,
                        const std::vector<double>& exact) {
  EXPECT_EQ(approx.size(), exact.size());
  double worst = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    worst = std::max(worst, std::abs(approx[i] - exact[i]) / exact[i]);
  }
  return worst;
}

// Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
// empirical CDFs of a and b.
double KsStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

TEST(KdeTest, EmptySampleRejected) {
  EXPECT_FALSE(KernelDensity::Fit({}).ok());
}

TEST(KdeTest, BandwidthPositive) {
  auto kde = KernelDensity::Fit(GaussianSample(500, 0.0, 1.0, 1));
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0.0);
}

TEST(KdeTest, DegenerateSampleGetsFloorBandwidth) {
  auto kde = KernelDensity::Fit({0.5, 0.5, 0.5, 0.5});
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0.0);
  EXPECT_GT(kde->Pdf(0.5), kde->Pdf(0.9));
}

TEST(KdeTest, PdfPeaksNearMode) {
  auto kde = KernelDensity::Fit(GaussianSample(2000, 0.0, 1.0, 2));
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->Pdf(0.0), kde->Pdf(2.0));
  EXPECT_GT(kde->Pdf(0.0), kde->Pdf(-2.0));
}

TEST(KdeTest, PdfIntegratesToOne) {
  auto kde = KernelDensity::Fit(GaussianSample(500, 0.0, 1.0, 3));
  ASSERT_TRUE(kde.ok());
  double integral = 0.0;
  const double dx = 0.01;
  for (double x = -6.0; x <= 6.0; x += dx) integral += kde->Pdf(x) * dx;
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(KdeTest, SampleMatchesSourceMoments) {
  auto kde = KernelDensity::Fit(GaussianSample(2000, 3.0, 0.5, 4));
  ASSERT_TRUE(kde.ok());
  Rng rng(5);
  std::vector<double> draws(20000);
  for (double& v : draws) v = kde->Sample(&rng);
  EXPECT_NEAR(Mean(draws), 3.0, 0.05);
  EXPECT_NEAR(Stddev(draws), 0.5, 0.1);
}

TEST(KdeTest, TruncatedSampleInBounds) {
  auto kde = KernelDensity::Fit(GaussianSample(500, 0.5, 0.3, 6));
  ASSERT_TRUE(kde.ok());
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double v = kde->SampleTruncated(0.0, 1.0, &rng);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(KdeTest, BimodalPdfHasTwoPeaks) {
  auto kde = KernelDensity::Fit(BimodalSample());
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->Pdf(0.2), kde->Pdf(0.5));
  EXPECT_GT(kde->Pdf(0.8), kde->Pdf(0.5));
}

TEST(KdeTest, ScottRuleAlsoWorks) {
  auto kde = KernelDensity::Fit(GaussianSample(500, 0.0, 1.0, 10),
                                BandwidthRule::kScott);
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0.0);
}

TEST(KdeProportionalSampleTest, SizeAndDistinctness) {
  Rng rng(11);
  const std::vector<double> values = GaussianSample(300, 0.5, 0.2, 12);
  auto sample = KdeProportionalSample(values, 50, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 50u);
  std::set<size_t> uniq(sample->begin(), sample->end());
  EXPECT_EQ(uniq.size(), 50u);
  for (size_t idx : *sample) EXPECT_LT(idx, values.size());
}

TEST(KdeProportionalSampleTest, RejectsOversizedK) {
  Rng rng(13);
  EXPECT_FALSE(KdeProportionalSample({0.1, 0.2}, 3, &rng).ok());
}

TEST(KdeProportionalSampleTest, DenseRegionOversampled) {
  // 90% of users near 0.2, 10% near 0.9: samples should mostly come from
  // the dense region.
  std::vector<double> values;
  Rng gen(14);
  for (int i = 0; i < 900; ++i) values.push_back(0.2 + 0.02 * gen.Normal());
  for (int i = 0; i < 100; ++i) values.push_back(0.9 + 0.02 * gen.Normal());
  Rng rng(15);
  auto sample = KdeProportionalSample(values, 100, &rng);
  ASSERT_TRUE(sample.ok());
  int dense = 0;
  for (size_t idx : *sample) {
    if (values[idx] < 0.5) ++dense;
  }
  EXPECT_GT(dense, 70);
}

TEST(KdeProportionalSampleTest, PoolSizesDrawIdenticalIndices) {
  // The pool only splits the density evaluations; every pool size must
  // draw exactly the serial indices, including ranges shorter than the
  // pool's chunk count and a sample with tied values.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (size_t n : {1u, 2u, 3u, 17u, 5000u}) {
    std::vector<double> values = GaussianSample(n, 0.5, 0.2, 20 + n);
    if (n > 2) values[n - 1] = values[0];
    const size_t k = std::min<size_t>(n, 40);
    Rng serial_rng(21);
    auto serial = KdeProportionalSample(values, k, &serial_rng);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ(serial->size(), k);
    const uint64_t serial_next = serial_rng.UniformInt(uint64_t{1} << 30);
    for (const auto& pool : pools) {
      Rng rng(21);
      auto pooled = KdeProportionalSample(values, k, &rng, pool.get());
      ASSERT_TRUE(pooled.ok());
      EXPECT_EQ(*serial, *pooled)
          << "n=" << n << " threads=" << pool->num_threads();
      // The generator advanced identically too.
      EXPECT_EQ(serial_next, rng.UniformInt(uint64_t{1} << 30));
    }
  }
}

// The binned weights' relative error against the exact oracle is
// O((step / bandwidth)^2). The worst fixture below reads 4.8e-5 (the
// 5000-value Gaussian); the bound leaves a factor of two.
constexpr double kMaxBinnedRelativeError = 1e-4;

TEST(BinnedKdeTest, GaussianSamplesMatchExactWeights) {
  for (size_t n : {1u, 2u, 3u, 17u, 5000u}) {
    std::vector<double> values = GaussianSample(n, 0.5, 0.2, 20 + n);
    if (n > 2) values[n - 1] = values[0];
    const double err =
        MaxRelativeError(BinnedKdeWeights(values), ExactKdeWeights(values));
    EXPECT_LT(err, kMaxBinnedRelativeError) << "n=" << n;
  }
}

TEST(BinnedKdeTest, BimodalTiedConstantAndGridEndsMatchExactWeights) {
  // Heavy ties: 3000 values on 21 levels.
  std::vector<double> tied = GaussianSample(3000, 0.5, 0.2, 30);
  for (double& v : tied) v = std::round(v * 20.0) / 20.0;
  // Clamping puts many values exactly on both grid ends, as the
  // min-max normalized theta vectors OSLG samples from do.
  std::vector<double> ends = GaussianSample(2000, 0.5, 0.3, 31);
  for (double& v : ends) v = std::clamp(v, 0.0, 1.0);
  ASSERT_GT(std::count(ends.begin(), ends.end(), 0.0), 10);
  ASSERT_GT(std::count(ends.begin(), ends.end(), 1.0), 10);
  const std::vector<double> constant(100, 0.5);
  for (const auto& [name, values] :
       {std::pair{"bimodal", BimodalSample()}, std::pair{"tied", tied},
        std::pair{"grid ends", ends}, std::pair{"constant", constant}}) {
    const double err =
        MaxRelativeError(BinnedKdeWeights(values), ExactKdeWeights(values));
    EXPECT_LT(err, kMaxBinnedRelativeError) << name;
  }
  // A constant sample gets equal weights.
  const std::vector<double> w = BinnedKdeWeights(constant);
  EXPECT_EQ(std::count(w.begin(), w.end(), w[0]), 100);
}

TEST(BinnedKdeTest, PoolSizesGiveIdenticalDensities) {
  const std::vector<double> values = GaussianSample(5000, 0.5, 0.2, 26);
  const std::vector<double> serial = BinnedKdeDensities(values, 0.03);
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    const std::vector<double> pooled =
        BinnedKdeDensities(values, 0.03, &pool);
    ASSERT_EQ(pooled.size(), serial.size());
    EXPECT_EQ(std::memcmp(pooled.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << threads << " threads";
  }
}

TEST(BinnedKdeTest, DrawMatchesExactDraw) {
  // The oracle's and the binned weights draw through the same alias
  // sampler. The contract is the KS bound on the drawn values; on this
  // 5000-value fixture the two draws are in fact identical for all 10
  // seeds (KS statistic 0).
  const std::vector<double> values = GaussianSample(5000, 0.5, 0.2, 25);
  const std::vector<double> exact = ExactKdeWeights(values);
  int equal_draws = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng exact_rng(seed);
    const std::vector<size_t> want =
        WeightedSampleWithoutReplacement(exact, 500, &exact_rng);
    Rng rng(seed);
    auto got = KdeProportionalSample(values, 500, &rng);
    ASSERT_TRUE(got.ok());
    std::vector<double> want_values, got_values;
    for (size_t i : want) want_values.push_back(values[i]);
    for (size_t i : *got) got_values.push_back(values[i]);
    EXPECT_LT(KsStatistic(want_values, got_values), 0.05) << "seed " << seed;
    if (want == *got) ++equal_draws;
  }
  EXPECT_EQ(equal_draws, 10);
}

TEST(KdeProportionalSampleTest, KZeroGivesEmpty) {
  Rng rng(16);
  auto sample = KdeProportionalSample({0.1, 0.2, 0.3}, 0, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_TRUE(sample->empty());
}

}  // namespace
}  // namespace ganc
