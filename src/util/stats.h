// Descriptive statistics, normalization, histograms, and inequality
// (Gini) machinery shared by the preference models, metrics, and the
// figure-reproduction benches.

#ifndef GANC_UTIL_STATS_H_
#define GANC_UTIL_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace ganc {

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& x);

/// Unbiased sample variance (n-1 denominator); 0 when n < 2.
double Variance(const std::vector<double>& x);

/// Sample standard deviation.
double Stddev(const std::vector<double>& x);

/// Minimum value; requires non-empty input.
double Min(const std::vector<double>& x);

/// Maximum value; requires non-empty input.
double Max(const std::vector<double>& x);

/// Linear-interpolation quantile, q in [0,1]; requires non-empty input.
/// The input does not need to be sorted.
double Quantile(std::vector<double> x, double q);

/// Min-max normalization x_i <- (x_i - min) / (max - min), the paper's
/// Section II-A normalization. A constant vector maps to all zeros. min
/// is the first minimal element in index order, which fixes the sign of a
/// zero minimum and so of every normalized -0.0.
void MinMaxNormalize(std::vector<double>* x);

/// Span overload for buffers borrowed from a ScoringContext.
void MinMaxNormalize(std::span<double> x);

/// Clamps every element into [lo, hi].
void ClampAll(std::vector<double>* x, double lo, double hi);

/// Fixed-width histogram over [lo, hi] with `bins` buckets. Values outside
/// the range are clamped into the terminal buckets.
struct Histogram {
  double lo = 0.0;
  double hi = 1.0;
  std::vector<size_t> counts;

  /// Bin center for bucket b.
  double BinCenter(size_t b) const;
};

/// Builds a histogram of `x` over [lo, hi].
Histogram MakeHistogram(const std::vector<double>& x, double lo, double hi,
                        size_t bins);

/// Gini coefficient of a frequency distribution (the paper's Gini@N,
/// Table III). 0 = perfect equality, -> 1 = maximal concentration.
/// The input is the recommendation frequency of every item in the catalog
/// (zeros included); order does not matter. Returns 0 when the total
/// frequency is 0.
double GiniCoefficient(std::vector<double> frequencies);

/// Pearson correlation of two equal-length vectors; 0 when undefined.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Spearman rank correlation; 0 when undefined.
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Equal-width binned means: partitions x-range into `bins` buckets and
/// returns (bin center, mean of y in bin, count) rows, skipping empty bins.
/// This is exactly the construction of the paper's Figure 1.
struct BinnedMeansRow {
  double bin_center;
  double mean_y;
  size_t count;
};
std::vector<BinnedMeansRow> BinnedMeans(const std::vector<double>& x,
                                        const std::vector<double>& y,
                                        size_t bins);

/// Peak resident set size of this process in MiB (Linux VmHWM high-water
/// mark; 0 where /proc/self/status is unavailable). Shared by the train
/// command's per-epoch reporting and the scale bench's RSS phases.
double PeakRssMb();

}  // namespace ganc

#endif  // GANC_UTIL_STATS_H_
