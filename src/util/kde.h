// Gaussian kernel density estimation over a 1-D sample, with automatic
// bandwidth selection and sampling from the estimated density.
//
// OSLG (Algorithm 1, line 2) approximates the PDF of the user long-tail
// preference vector theta with KDE and draws the sequential-phase user
// sample from it, so dense regions of the preference distribution are
// proportionally represented.

#ifndef GANC_UTIL_KDE_H_
#define GANC_UTIL_KDE_H_

#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace ganc {

class ThreadPool;

/// Bandwidth selection rule for KernelDensity.
enum class BandwidthRule {
  /// Silverman's rule of thumb: 0.9 * min(sd, IQR/1.34) * n^(-1/5).
  kSilverman,
  /// Scott's rule: 1.06 * sd * n^(-1/5).
  kScott,
};

/// 1-D Gaussian KDE.
///
/// The estimate is f(x) = (1/nh) * sum_i K((x - x_i)/h) with Gaussian K.
/// Sampling exploits the mixture form of the KDE: pick a data point
/// uniformly, then add Gaussian noise of scale h.
class KernelDensity {
 public:
  /// Fits a KDE to the sample. Requires a non-empty sample. A degenerate
  /// (constant) sample falls back to a small positive bandwidth.
  static Result<KernelDensity> Fit(const std::vector<double>& sample,
                                   BandwidthRule rule = BandwidthRule::kSilverman);

  /// Density estimate at point x.
  double Pdf(double x) const;

  /// Draws one value from the estimated density.
  double Sample(Rng* rng) const;

  /// Draws one value from the estimated density truncated to [lo, hi]
  /// (rejection with clamping fallback).
  double SampleTruncated(double lo, double hi, Rng* rng) const;

  double bandwidth() const { return bandwidth_; }
  size_t sample_size() const { return data_.size(); }

 private:
  KernelDensity(std::vector<double> data, double bandwidth)
      : data_(std::move(data)), bandwidth_(bandwidth) {}

  std::vector<double> data_;
  double bandwidth_;
};

/// Draws `k` distinct indices from `values` (one index per element) such
/// that the probability of picking index u is proportional to the KDE
/// density at values[u]. This is the user-sampling step of OSLG: users in
/// dense regions of the preference distribution are more likely to be
/// chosen for the sequential phase. Requires k <= values.size().
///
/// The n density evaluations cost O(n^2) and are independent, so a
/// non-null `pool` spreads them over its workers in contiguous chunks.
/// Each density keeps its serial j = 0..n-1 summation order, so the
/// weights — and therefore the drawn indices — are bit-identical for a
/// null pool and for every pool size.
Result<std::vector<size_t>> KdeProportionalSample(
    const std::vector<double>& values, size_t k, Rng* rng,
    ThreadPool* pool = nullptr);

}  // namespace ganc

#endif  // GANC_UTIL_KDE_H_
