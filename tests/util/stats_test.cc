#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ganc {
namespace {

TEST(MeanTest, Basic) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({5.0}), 5.0);
}

TEST(VarianceTest, UnbiasedSample) {
  EXPECT_DOUBLE_EQ(Variance({1.0, 2.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(Variance({4.0}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

TEST(StddevTest, Basic) {
  EXPECT_DOUBLE_EQ(Stddev({1.0, 2.0, 3.0}), 1.0);
}

TEST(MinMaxTest, Basic) {
  EXPECT_DOUBLE_EQ(Min({3.0, -1.0, 2.0}), -1.0);
  EXPECT_DOUBLE_EQ(Max({3.0, -1.0, 2.0}), 3.0);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> x{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(x, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(x, 1.0), 5.0);
}

TEST(QuantileTest, Interpolates) {
  std::vector<double> x{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(x, 0.25), 2.5);
}

TEST(MinMaxNormalizeTest, MapsToUnitInterval) {
  std::vector<double> x{2.0, 4.0, 6.0};
  MinMaxNormalize(&x);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
  EXPECT_DOUBLE_EQ(x[2], 1.0);
}

TEST(MinMaxNormalizeTest, ConstantVectorBecomesZeros) {
  std::vector<double> x{3.0, 3.0, 3.0};
  MinMaxNormalize(&x);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MinMaxNormalizeTest, EmptyIsNoop) {
  std::vector<double> x;
  MinMaxNormalize(&x);
  EXPECT_TRUE(x.empty());
}

// MinMaxNormalize as it was before the branch-free min/max reduction,
// kept verbatim as the golden: rows must match it byte for byte.
void GoldenMinMaxNormalize(std::span<double> x) {
  if (x.empty()) return;
  const auto [lo_it, hi_it] = std::minmax_element(x.begin(), x.end());
  const double lo = *lo_it;
  const double range = *hi_it - lo;
  if (range <= 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    return;
  }
  for (double& v : x) v = (v - lo) / range;
}

void ExpectNormalizesLikeGolden(const std::vector<double>& row,
                                const std::string& what) {
  std::vector<double> want = row;
  std::vector<double> got = row;
  GoldenMinMaxNormalize(want);
  MinMaxNormalize(&got);
  ASSERT_EQ(got.size(), want.size());
  if (got.empty()) return;  // memcmp must not see the null data()
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what;
}

std::vector<double> RandomRow(size_t n, Rng* rng) {
  std::vector<double> row(n);
  for (double& v : row) v = rng->Normal();
  return row;
}

TEST(MinMaxNormalizeTest, BitIdenticalOnEveryLength) {
  // Lengths 0-67 cover every accumulator tail.
  Rng rng(41);
  for (size_t n = 0; n <= 67; ++n) {
    ExpectNormalizesLikeGolden(RandomRow(n, &rng), "n=" + std::to_string(n));
  }
}

TEST(MinMaxNormalizeTest, BitIdenticalOnRandomRows) {
  Rng rng(42);
  for (int r = 0; r < 200; ++r) {
    const size_t n = 1 + rng.UniformInt(4000);
    ExpectNormalizesLikeGolden(RandomRow(n, &rng), "row " + std::to_string(r));
  }
  ExpectNormalizesLikeGolden(RandomRow(20000, &rng), "20K-item row");
}

TEST(MinMaxNormalizeTest, BitIdenticalOnTiesAndConstantRows) {
  Rng rng(43);
  for (size_t n : {2u, 9u, 37u, 3706u}) {
    std::vector<double> row = RandomRow(n, &rng);
    const double lo = *std::min_element(row.begin(), row.end());
    const double hi = *std::max_element(row.begin(), row.end());
    // Ties at the minimum and at the maximum, spread over several lanes.
    for (size_t i = 0; i < n; i += 3) row[i] = lo;
    for (size_t i = 1; i < n; i += 5) row[i] = hi;
    ExpectNormalizesLikeGolden(row, "ties n=" + std::to_string(n));
    ExpectNormalizesLikeGolden(std::vector<double>(n, 0.25),
                               "constant n=" + std::to_string(n));
  }
}

TEST(MinMaxNormalizeTest, BitIdenticalOnSignedZeroMinimum) {
  // The minimum is zero with both signs present. Which zero comes first
  // decides the sign of every normalized -0.0, so put the first zero in
  // every lane and in the tail, with either sign first.
  Rng rng(44);
  for (size_t n : {1u, 8u, 19u, 67u}) {
    for (size_t first = 0; first < n; ++first) {
      for (double first_zero : {0.0, -0.0}) {
        std::vector<double> row(n);
        for (double& v : row) v = 0.1 + rng.Uniform();
        row[first] = first_zero;
        for (size_t i = first + 1; i < n; i += 2) {
          row[i] = (i / 2) % 2 == 0 ? -0.0 : 0.0;
        }
        ExpectNormalizesLikeGolden(
            row, "n=" + std::to_string(n) + " first=" + std::to_string(first) +
                     (std::signbit(first_zero) ? " -0" : " +0"));
      }
    }
  }
}

TEST(ClampAllTest, Basic) {
  std::vector<double> x{-1.0, 0.5, 2.0};
  ClampAll(&x, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
  EXPECT_DOUBLE_EQ(x[2], 1.0);
}

TEST(HistogramTest, CountsAndClamping) {
  Histogram h = MakeHistogram({0.05, 0.15, 0.95, 1.5, -0.5}, 0.0, 1.0, 10);
  ASSERT_EQ(h.counts.size(), 10u);
  EXPECT_EQ(h.counts[0], 2u);  // 0.05 and clamped -0.5
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[9], 2u);  // 0.95 and clamped 1.5
  size_t total = 0;
  for (size_t c : h.counts) total += c;
  EXPECT_EQ(total, 5u);
}

TEST(HistogramTest, BinCenter) {
  Histogram h = MakeHistogram({0.5}, 0.0, 1.0, 10);
  EXPECT_NEAR(h.BinCenter(0), 0.05, 1e-12);
  EXPECT_NEAR(h.BinCenter(9), 0.95, 1e-12);
}

TEST(GiniTest, PerfectEqualityIsZero) {
  EXPECT_NEAR(GiniCoefficient({5.0, 5.0, 5.0, 5.0}), 0.0, 1e-12);
}

TEST(GiniTest, MaximalConcentration) {
  // All mass on one of n items: gini -> (n-1)/n.
  const double g = GiniCoefficient({0.0, 0.0, 0.0, 100.0});
  EXPECT_NEAR(g, 0.75, 1e-12);
}

TEST(GiniTest, KnownValue) {
  // f = [1, 2, 3, 4]: G = (n+1 - 2*sum((n+1-j)f_j)/sum f)/n
  //   sum f = 10; weighted = 4*1+3*2+2*3+1*4 = 20; G = (5 - 4)/4 = 0.25.
  EXPECT_NEAR(GiniCoefficient({1.0, 2.0, 3.0, 4.0}), 0.25, 1e-12);
}

TEST(GiniTest, OrderInvariant) {
  EXPECT_DOUBLE_EQ(GiniCoefficient({4.0, 1.0, 3.0, 2.0}),
                   GiniCoefficient({1.0, 2.0, 3.0, 4.0}));
}

TEST(GiniTest, ZeroTotalIsZero) {
  EXPECT_DOUBLE_EQ(GiniCoefficient({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({}), 0.0);
}

TEST(GiniTest, MoreConcentratedIsLarger) {
  EXPECT_GT(GiniCoefficient({0.0, 0.0, 1.0, 9.0}),
            GiniCoefficient({2.0, 2.0, 3.0, 3.0}));
}

TEST(PearsonTest, PerfectPositiveAndNegative) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
}

TEST(PearsonTest, DegenerateIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1}, {2}), 0.0);
}

TEST(SpearmanTest, MonotoneNonlinearIsOne) {
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3, 4}, {1, 8, 27, 64}), 1.0, 1e-12);
}

TEST(SpearmanTest, HandlesTies) {
  const double r = SpearmanCorrelation({1, 2, 2, 3}, {1, 2, 2, 3});
  EXPECT_NEAR(r, 1.0, 1e-12);
}

TEST(BinnedMeansTest, PartitionsAndAverages) {
  // x in [0, 1], two clusters.
  std::vector<double> x{0.1, 0.15, 0.9, 0.95};
  std::vector<double> y{10.0, 20.0, 100.0, 200.0};
  const auto rows = BinnedMeans(x, y, 2);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].mean_y, 15.0);
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[1].mean_y, 150.0);
}

TEST(BinnedMeansTest, SkipsEmptyBins) {
  std::vector<double> x{0.0, 1.0};
  std::vector<double> y{1.0, 2.0};
  const auto rows = BinnedMeans(x, y, 10);
  EXPECT_EQ(rows.size(), 2u);
}

TEST(BinnedMeansTest, ConstantXSingleBin) {
  std::vector<double> x{0.5, 0.5, 0.5};
  std::vector<double> y{1.0, 2.0, 3.0};
  const auto rows = BinnedMeans(x, y, 5);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].mean_y, 2.0);
}

}  // namespace
}  // namespace ganc
