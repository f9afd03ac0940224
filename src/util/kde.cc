#include "util/kde.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"
#include "util/thread_pool.h"

namespace ganc {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;
constexpr double kMinBandwidth = 1e-3;
}  // namespace

Result<KernelDensity> KernelDensity::Fit(const std::vector<double>& sample,
                                         BandwidthRule rule) {
  if (sample.empty()) {
    return Status::InvalidArgument("KDE requires a non-empty sample");
  }
  const double n = static_cast<double>(sample.size());
  const double sd = Stddev(sample);
  double h = kMinBandwidth;
  switch (rule) {
    case BandwidthRule::kSilverman: {
      const double iqr =
          Quantile(sample, 0.75) - Quantile(sample, 0.25);
      double spread = sd;
      if (iqr > 0.0) spread = std::min(sd, iqr / 1.34);
      if (spread <= 0.0) spread = sd;
      h = 0.9 * spread * std::pow(n, -0.2);
      break;
    }
    case BandwidthRule::kScott:
      h = 1.06 * sd * std::pow(n, -0.2);
      break;
  }
  if (!(h > 0.0) || !std::isfinite(h)) h = kMinBandwidth;
  h = std::max(h, kMinBandwidth);
  return KernelDensity(sample, h);
}

double KernelDensity::Pdf(double x) const {
  const double h = bandwidth_;
  double acc = 0.0;
  for (double xi : data_) {
    const double z = (x - xi) / h;
    acc += std::exp(-0.5 * z * z);
  }
  return acc * kInvSqrt2Pi / (h * static_cast<double>(data_.size()));
}

double KernelDensity::Sample(Rng* rng) const {
  const size_t i = static_cast<size_t>(rng->UniformInt(data_.size()));
  return data_[i] + bandwidth_ * rng->Normal();
}

double KernelDensity::SampleTruncated(double lo, double hi, Rng* rng) const {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double x = Sample(rng);
    if (x >= lo && x <= hi) return x;
  }
  return std::clamp(Sample(rng), lo, hi);
}

std::vector<double> BinnedKdeDensities(const std::vector<double>& values,
                                       double bandwidth, ThreadPool* pool) {
  const size_t n = values.size();
  if (n == 0) return {};
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  constexpr size_t M = kKdeGridPoints;
  const double lo = *lo_it;
  const double step = (*hi_it - lo) / static_cast<double>(M - 1);
  if (!(step > 0.0)) {
    // A constant sample (or one too narrow to grid): each density is n
    // kernels at distance 0.
    return std::vector<double>(n, kInvSqrt2Pi / bandwidth);
  }

  // Linear binning: a value between grid points j and j + 1 puts weight
  // 1 - frac on j and frac on j + 1. The same locate() places a value for
  // binning and for reading its density back.
  auto locate = [&](double v, size_t* j, double* frac) {
    const double t = std::min((v - lo) / step, static_cast<double>(M - 1));
    *j = std::min(static_cast<size_t>(t), M - 2);
    *frac = t - static_cast<double>(*j);
  };
  std::vector<double> bins(M, 0.0);
  for (double v : values) {
    size_t j;
    double frac;
    locate(v, &j, &frac);
    bins[j] += 1.0 - frac;
    bins[j + 1] += frac;
  }

  // kernel[M - 1 + d] = K(d * step / h) for d in (-M, M), so grid point k
  // reads grid point j's kernel at kernel[M - 1 + k - j].
  std::vector<double> kernel(2 * M - 1);
  for (size_t d = 0; d < M; ++d) {
    const double z = static_cast<double>(d) * step / bandwidth;
    kernel[M - 1 + d] = kernel[M - 1 - d] = std::exp(-0.5 * z * z);
  }

  // Grid densities, kBlock grid points at a time. Each point sums j = 0..M-1
  // in ascending order into its own accumulator; the block only interleaves
  // independent sums, and the pool only splits whole blocks, so every grid
  // density has the same bits for any pool size.
  constexpr size_t kBlock = 8;
  static_assert(M % kBlock == 0);
  const double scale = kInvSqrt2Pi / (bandwidth * static_cast<double>(n));
  std::vector<double> grid(M);
  ParallelForChunks(pool, 0, M / kBlock, [&](size_t b_lo, size_t b_hi) {
    for (size_t b = b_lo; b < b_hi; ++b) {
      const size_t k0 = b * kBlock;
      double acc[kBlock] = {};
      for (size_t j = 0; j < M; ++j) {
        const double c = bins[j];
        const double* kern = &kernel[M - 1 + k0 - j];
        for (size_t r = 0; r < kBlock; ++r) acc[r] += c * kern[r];
      }
      for (size_t r = 0; r < kBlock; ++r) grid[k0 + r] = acc[r] * scale;
    }
  });

  std::vector<double> density(n);
  for (size_t i = 0; i < n; ++i) {
    size_t j;
    double frac;
    locate(values[i], &j, &frac);
    density[i] = (1.0 - frac) * grid[j] + frac * grid[j + 1];
  }
  return density;
}

Result<std::vector<size_t>> KdeProportionalSample(
    const std::vector<double>& values, size_t k, Rng* rng, ThreadPool* pool) {
  if (k > values.size()) {
    return Status::InvalidArgument(
        "KdeProportionalSample: k exceeds population size");
  }
  if (k == 0) return std::vector<size_t>{};
  Result<KernelDensity> kde = KernelDensity::Fit(values);
  if (!kde.ok()) return kde.status();
  std::vector<double> weights =
      BinnedKdeDensities(values, kde->bandwidth(), pool);
  for (double& w : weights) w = std::max(w, 1e-12);
  return WeightedSampleWithoutReplacement(weights, k, rng);
}

}  // namespace ganc
