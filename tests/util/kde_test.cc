#include "util/kde.h"

#include <cmath>
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
  std::vector<double> sample = GaussianSample(1000, 0.2, 0.04, 8);
  const std::vector<double> second = GaussianSample(1000, 0.8, 0.04, 9);
  sample.insert(sample.end(), second.begin(), second.end());
  auto kde = KernelDensity::Fit(sample);
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

TEST(KdeProportionalSampleTest, KZeroGivesEmpty) {
  Rng rng(16);
  auto sample = KdeProportionalSample({0.1, 0.2, 0.3}, 0, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_TRUE(sample->empty());
}

}  // namespace
}  // namespace ganc
