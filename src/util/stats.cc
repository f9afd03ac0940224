#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>

namespace ganc {

double Mean(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  return std::accumulate(x.begin(), x.end(), 0.0) /
         static_cast<double>(x.size());
}

double Variance(const std::vector<double>& x) {
  if (x.size() < 2) return 0.0;
  const double m = Mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size() - 1);
}

double Stddev(const std::vector<double>& x) { return std::sqrt(Variance(x)); }

double Min(const std::vector<double>& x) {
  assert(!x.empty());
  return *std::min_element(x.begin(), x.end());
}

double Max(const std::vector<double>& x) {
  assert(!x.empty());
  return *std::max_element(x.begin(), x.end());
}

double Quantile(std::vector<double> x, double q) {
  assert(!x.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::sort(x.begin(), x.end());
  if (x.size() == 1) return x[0];
  const double pos = q * static_cast<double>(x.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, x.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return x[lo] * (1.0 - frac) + x[hi] * frac;
}

void MinMaxNormalize(std::vector<double>* x) {
  MinMaxNormalize(std::span<double>(*x));
}

void MinMaxNormalize(std::span<double> x) {
  if (x.empty()) return;
  // Min and max over four independent two-double accumulators (the
  // GCC/Clang vector extension, whose lane-wise selects compile to
  // minpd/maxpd), so the scan has no data-dependent branch to mispredict
  // on unsorted scores.
  using Pair = double __attribute__((vector_size(16)));
  constexpr size_t kPairs = 4;
  Pair lo_acc[kPairs], hi_acc[kPairs];
  for (size_t a = 0; a < kPairs; ++a) lo_acc[a] = hi_acc[a] = Pair{x[0], x[0]};
  const size_t n = x.size();
  size_t i = 0;
  for (; i + 2 * kPairs <= n; i += 2 * kPairs) {
    for (size_t a = 0; a < kPairs; ++a) {
      Pair v;
      std::memcpy(&v, &x[i + 2 * a], sizeof(v));
      lo_acc[a] = v < lo_acc[a] ? v : lo_acc[a];
      hi_acc[a] = v > hi_acc[a] ? v : hi_acc[a];
    }
  }
  double lo = x[0];
  double hi = x[0];
  auto fold = [&](double v) {
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  };
  for (size_t a = 0; a < kPairs; ++a) {
    for (size_t l = 0; l < 2; ++l) {
      fold(lo_acc[a][l]);
      fold(hi_acc[a][l]);
    }
  }
  for (; i < n; ++i) fold(x[i]);
  // The extremes' values are exact, but a zero minimum may carry either
  // sign, and v - lo maps a -0.0 element to -0.0 or +0.0 depending on it.
  // The minimum is the first minimal element in index order.
  if (lo == 0.0) lo = *std::find(x.begin(), x.end(), 0.0);
  const double range = hi - lo;
  if (range <= 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    return;
  }
  for (double& v : x) v = (v - lo) / range;
}

void ClampAll(std::vector<double>* x, double lo, double hi) {
  for (double& v : *x) v = std::clamp(v, lo, hi);
}

double Histogram::BinCenter(size_t b) const {
  const double width = (hi - lo) / static_cast<double>(counts.size());
  return lo + (static_cast<double>(b) + 0.5) * width;
}

Histogram MakeHistogram(const std::vector<double>& x, double lo, double hi,
                        size_t bins) {
  assert(bins > 0);
  assert(hi > lo);
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : x) {
    long b = static_cast<long>((v - lo) / width);
    b = std::clamp<long>(b, 0, static_cast<long>(bins) - 1);
    ++h.counts[static_cast<size_t>(b)];
  }
  return h;
}

double GiniCoefficient(std::vector<double> f) {
  if (f.empty()) return 0.0;
  std::sort(f.begin(), f.end());  // non-decreasing, as Table III requires
  const double n = static_cast<double>(f.size());
  double total = 0.0;
  double weighted = 0.0;
  for (size_t j = 0; j < f.size(); ++j) {
    assert(f[j] >= 0.0);
    total += f[j];
    // Table III: sum over (|I| + 1 - j) * f[j] with 1-based j.
    weighted += (n + 1.0 - static_cast<double>(j + 1)) * f[j];
  }
  if (total <= 0.0) return 0.0;
  return (n + 1.0 - 2.0 * weighted / total) / n;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  assert(x.size() == y.size());
  const size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {
// Average ranks with ties (1-based), for Spearman.
std::vector<double> AverageRanks(const std::vector<double>& x) {
  const size_t n = x.size();
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return x[a] < x[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && x[idx[j + 1]] == x[idx[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[idx[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}
}  // namespace

double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  assert(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  return PearsonCorrelation(AverageRanks(x), AverageRanks(y));
}

std::vector<BinnedMeansRow> BinnedMeans(const std::vector<double>& x,
                                        const std::vector<double>& y,
                                        size_t bins) {
  assert(x.size() == y.size());
  assert(bins > 0);
  std::vector<BinnedMeansRow> out;
  if (x.empty()) return out;
  const double lo = Min(x);
  const double hi = Max(x);
  const double range = hi - lo;
  std::vector<double> sums(bins, 0.0);
  std::vector<size_t> counts(bins, 0);
  for (size_t i = 0; i < x.size(); ++i) {
    size_t b = 0;
    if (range > 0.0) {
      b = static_cast<size_t>(std::clamp(
          (x[i] - lo) / range * static_cast<double>(bins), 0.0,
          static_cast<double>(bins) - 1.0));
    }
    sums[b] += y[i];
    ++counts[b];
  }
  const double width = range > 0.0 ? range / static_cast<double>(bins) : 1.0;
  for (size_t b = 0; b < bins; ++b) {
    if (counts[b] == 0) continue;
    out.push_back({lo + (static_cast<double>(b) + 0.5) * width,
                   sums[b] / static_cast<double>(counts[b]), counts[b]});
  }
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace ganc
