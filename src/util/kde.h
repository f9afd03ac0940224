// Gaussian kernel density estimation over a 1-D sample, with automatic
// bandwidth selection and sampling from the estimated density.
//
// OSLG (Algorithm 1, line 2) approximates the PDF of the user long-tail
// preference vector theta with KDE and draws the sequential-phase user
// sample from it, so dense regions of the preference distribution are
// proportionally represented.

#ifndef GANC_UTIL_KDE_H_
#define GANC_UTIL_KDE_H_

#include <cstddef>
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

/// Grid points of the binned KDE behind KdeProportionalSample.
inline constexpr size_t kKdeGridPoints = 2048;

/// Binned Gaussian KDE (Silverman 1982, AS 176; Wand 1994) at every
/// element of `values`, with bandwidth `bandwidth`: the values are
/// linear-binned onto kKdeGridPoints points spanning [min, max], the grid
/// densities are direct sums over the grid, and each value reads the
/// linear interpolation between its two grid points. Costs
/// O(n + kKdeGridPoints^2) instead of the exact O(n^2); the relative
/// error against KernelDensity::Pdf is O((step / bandwidth)^2), with step
/// = (max - min) / (kKdeGridPoints - 1). A constant sample gets equal
/// densities. Values must be finite and `bandwidth` positive.
///
/// Binning and interpolation run serially in index order; each grid
/// density sums the grid in ascending order, and a non-null `pool` only
/// splits whole blocks of grid points. The densities therefore have the
/// same bits for a null pool and for every pool size.
std::vector<double> BinnedKdeDensities(const std::vector<double>& values,
                                       double bandwidth,
                                       ThreadPool* pool = nullptr);

/// Draws `k` distinct indices from `values` (one index per element) such
/// that the probability of picking index u is proportional to the KDE
/// density at values[u]. This is the user-sampling step of OSLG: users in
/// dense regions of the preference distribution are more likely to be
/// chosen for the sequential phase. Requires k <= values.size().
///
/// The bandwidth comes from KernelDensity::Fit (Silverman's rule) and the
/// weights are max(BinnedKdeDensities(values), 1e-12), so the cost is
/// O(n log n) for the fit's quantiles plus O(kKdeGridPoints^2) for the
/// grid. `pool` spreads the grid over its workers; the drawn indices are
/// bit-identical for a null pool and for every pool size.
Result<std::vector<size_t>> KdeProportionalSample(
    const std::vector<double>& values, size_t k, Rng* rng,
    ThreadPool* pool = nullptr);

}  // namespace ganc

#endif  // GANC_UTIL_KDE_H_
