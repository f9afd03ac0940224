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

Result<std::vector<size_t>> KdeProportionalSample(
    const std::vector<double>& values, size_t k, Rng* rng, ThreadPool* pool) {
  if (k > values.size()) {
    return Status::InvalidArgument(
        "KdeProportionalSample: k exceeds population size");
  }
  if (k == 0) return std::vector<size_t>{};
  Result<KernelDensity> kde = KernelDensity::Fit(values);
  if (!kde.ok()) return kde.status();
  std::vector<double> weights(values.size());
  ParallelForChunks(pool, 0, values.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      weights[i] = std::max(kde->Pdf(values[i]), 1e-12);
    }
  });
  return WeightedSampleWithoutReplacement(weights, k, rng);
}

}  // namespace ganc
