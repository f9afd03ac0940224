#include "core/ganc.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "util/kde.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/top_k.h"

namespace ganc {

Ganc::Ganc(const AccuracyScorer* accuracy, std::vector<double> theta,
           CoverageKind coverage)
    : accuracy_(accuracy), theta_(std::move(theta)), coverage_(coverage) {}

std::string Ganc::Name(const std::string& theta_name) const {
  return "GANC(" + accuracy_->name() + ", " + theta_name + ", " +
         CoverageKindName(coverage_) + ")";
}

namespace {

// How far below the k-th best exact score a bound must lie for its item
// to be skipped: about 450 times the largest distance between p(i) and
// e(i) (2e-15) on rows that allow the bound at all.
constexpr double kGancMargin = 0x1.0p-40;

// GancBlockBelow's body, inlined into the kernel. Four two-double lanes
// (the vector extension MinMaxNormalize's reduction uses), combined as
// masks so the test has one branch per block.
inline bool BlockBelow(const double* raw, const double* coverage, double lo,
                       double inv_range, double theta, double cut) {
  using Pair = double __attribute__((vector_size(16)));
  static_assert(kGancBlock == 8);
  const Pair lo2 = {lo, lo};
  const Pair inv2 = {inv_range, inv_range};
  const Pair w2 = {1.0 - theta, 1.0 - theta};
  const Pair theta2 = {theta, theta};
  const Pair cut2 = {cut, cut};
  Pair p[4];
  for (size_t a = 0; a < 4; ++a) {
    Pair r, c;
    std::memcpy(&r, raw + 2 * a, sizeof(r));
    std::memcpy(&c, coverage + 2 * a, sizeof(c));
    p[a] = w2 * ((r - lo2) * inv2) + theta2 * c;
  }
  const auto below =
      (p[0] < cut2) & (p[1] < cut2) & (p[2] < cut2) & (p[3] < cut2);
  return (below[0] & below[1]) != 0;
}

void CopyItemIds(const std::vector<ScoredItem>& top,
                 std::vector<ItemId>& out) {
  out.clear();
  out.reserve(top.size());
  for (const ScoredItem& s : top) out.push_back(s.item);
}

}  // namespace

bool GancBlockBelow(const double* raw, const double* coverage, double lo,
                    double inv_range, double theta, double cut) {
  return BlockBelow(raw, coverage, lo, inv_range, theta, cut);
}

std::vector<ScoredItem>& SelectGancTopKUnrated(
    std::span<const double> raw, RowScale scale, double theta,
    std::span<const double> coverage, const RatingDataset& train, UserId u,
    size_t k, ScoringContext& ctx, std::span<const ItemId> exclusions) {
  const size_t n = raw.size();
  std::vector<uint8_t>& masked = ctx.Flags();
  const size_t candidates =
      n - MarkUnavailable(train, u, exclusions, n, masked);
  std::vector<ScoredItem>& top = ctx.TopK();
  top.clear();
  const double lo = scale.lo;
  const double range = scale.range;
  const double w = 1.0 - theta;
  // The old greedy's (1 - theta) * a(i) + theta * c(i), with a(i) the
  // normalized accuracy (r_i - lo) / range: the same operations in the
  // same order.
  auto exact = [&](size_t i) {
    return w * ((raw[i] - lo) / range) + theta * coverage[i];
  };
  if (k == 0) {
    // Nothing to select.
  } else if (UseScanSelect(k, candidates)) {
    const bool bounded = std::isfinite(lo) && std::isfinite(range) &&
                         range > 0.0 && theta >= 0.0 && theta <= 1.0;
    const double inv_range = 1.0 / range;
    // Below `cut` a bound proves its item loses. Nothing does so until k
    // items are held, or at all on a row the bound does not cover.
    double cut = -std::numeric_limits<double>::infinity();
    size_t have = 0;
    double worst_score = 0.0;
    int32_t worst_item = 0;
    // ScanSelectBestInto's reject test and insertion, verbatim.
    auto offer = [&](size_t i) {
      const ScoredItem c{static_cast<int32_t>(i), exact(i)};
      if (have == k) {
        if (c.score < worst_score ||
            (c.score == worst_score && c.item >= worst_item)) {
          return;
        }
        top.pop_back();
      } else {
        ++have;
      }
      top.insert(std::upper_bound(top.begin(), top.end(), c, ScoredBetterCmp{}),
                 c);
      worst_score = top.back().score;
      worst_item = top.back().item;
      if (bounded && have == k) cut = worst_score - kGancMargin;
    };
    size_t i = 0;
    for (; i + kGancBlock <= n; i += kGancBlock) {
      if (BlockBelow(&raw[i], &coverage[i], lo, inv_range, theta, cut)) {
        continue;
      }
      for (size_t j = i; j < i + kGancBlock; ++j) {
        if (masked[j] == 0) offer(j);
      }
    }
    for (; i < n; ++i) {
      if (masked[i] == 0) offer(i);
    }
  } else {
    top.reserve(candidates);
    for (size_t i = 0; i < n; ++i) {
      if (masked[i] == 0) top.push_back({static_cast<int32_t>(i), exact(i)});
    }
    PartialSelectBest(&top, k);
  }
  UnmarkUnavailable(train, u, exclusions, masked);
  return top;
}

Status CheckThetaRange(std::span<const double> theta) {
  for (double t : theta) {
    if (t < 0.0 || t > 1.0 || !std::isfinite(t)) {
      return Status::InvalidArgument("theta entries must lie in [0, 1]");
    }
  }
  return Status::OK();
}

Result<TopNCollection> Ganc::RecommendAll(const RatingDataset& train,
                                          const GancConfig& config) const {
  if (theta_.size() != static_cast<size_t>(train.num_users())) {
    return Status::InvalidArgument(
        "theta size does not match the number of users");
  }
  GANC_RETURN_NOT_OK(CheckThetaRange(theta_));
  if (config.top_n <= 0) {
    return Status::InvalidArgument("top_n must be positive");
  }
  if (coverage_ == CoverageKind::kDyn) return RunOslg(train, config);
  return RunModular(train, config);
}

TopNCollection Ganc::RunModular(const RatingDataset& train,
                                const GancConfig& config) const {
  // Rand/Stat coverage is independent across users: the aggregate optimum
  // is each user's own mixed-score top-N, embarrassingly parallel.
  const std::unique_ptr<CoverageModel> coverage =
      MakeCoverage(coverage_, train, config.seed);
  TopNCollection result(static_cast<size_t>(train.num_users()));
  ParallelForChunks(
      config.pool, 0, static_cast<size_t>(train.num_users()),
      [&](size_t lo, size_t hi) {
        ScoringContext ctx;
        ForEachScaledUser(
            *accuracy_, lo, hi, ctx,
            [&](UserId u, std::span<const double> raw, RowScale scale) {
              const size_t uu = static_cast<size_t>(u);
              CopyItemIds(SelectGancTopKUnrated(
                              raw, scale, theta_[uu], coverage->Row(u, ctx),
                              train, u, static_cast<size_t>(config.top_n),
                              ctx),
                          result[uu]);
            });
      });
  return result;
}

Result<TopNCollection> Ganc::RunOslg(const RatingDataset& train,
                                     const GancConfig& config) const {
  const size_t n_users = static_cast<size_t>(train.num_users());
  Rng rng(config.seed);

  // --- Line 2: choose the sequential sample S.
  std::vector<size_t> sample;
  const bool full =
      config.sample_size <= 0 ||
      static_cast<size_t>(config.sample_size) >= n_users;
  if (full) {
    sample.resize(n_users);
    std::iota(sample.begin(), sample.end(), 0);
  } else if (config.kde_sampling) {
    Result<std::vector<size_t>> drawn = KdeProportionalSample(
        theta_, static_cast<size_t>(config.sample_size), &rng, config.pool);
    if (!drawn.ok()) return drawn.status();
    sample = std::move(drawn).value();
  } else {
    sample = SampleWithoutReplacement(
        n_users, static_cast<size_t>(config.sample_size), &rng);
  }

  // --- Line 3: order the sample by increasing theta (or shuffle for the
  // arbitrary-order ablation).
  if (config.order_by_theta) {
    std::sort(sample.begin(), sample.end(), [&](size_t a, size_t b) {
      if (theta_[a] != theta_[b]) return theta_[a] < theta_[b];
      return a < b;
    });
  } else {
    rng.Shuffle(&sample);
  }

  TopNCollection result(n_users);
  std::vector<bool> in_sample(n_users, false);
  const size_t top_n = static_cast<size_t>(config.top_n);

  // --- Lines 4-10: sequential locally greedy over the sample. Accuracy
  // scores do not depend on the evolving Dyn state, so they batch through
  // the blocked kernel even though the greedy itself stays sequential.
  // Step t's list is appended to a log (ids plus step offsets): the Dyn
  // state F(theta_u) after step t is the replay of steps 0..t, so the
  // parallel phase rebuilds any snapshot from S x N ids instead of
  // keeping S count vectors.
  DynCoverage dyn(train.num_items());
  std::vector<ItemId> log_items;
  std::vector<size_t> log_offsets = {0};
  std::vector<double> snapshot_theta;
  log_items.reserve(sample.size() * top_n);
  log_offsets.reserve(sample.size() + 1);
  snapshot_theta.reserve(sample.size());
  {
    ScoringContext ctx;
    std::vector<UserId> sample_users(sample.begin(), sample.end());
    ForEachScaledUser(
        *accuracy_, std::span<const UserId>(sample_users), ctx,
        [&](UserId u, std::span<const double> raw, RowScale scale) {
          const size_t uu = static_cast<size_t>(u);
          in_sample[uu] = true;
          std::vector<ItemId>& list = result[uu];
          CopyItemIds(SelectGancTopKUnrated(raw, scale, theta_[uu],
                                            dyn.Row(u, ctx), train, u, top_n,
                                            ctx),
                      list);
          for (ItemId i : list) dyn.Observe(i);
          log_items.insert(log_items.end(), list.begin(), list.end());
          log_offsets.push_back(log_items.size());
          snapshot_theta.push_back(theta_[uu]);
        });
  }

  if (full) return result;

  // --- Lines 11-15: every remaining user gets the coverage state of the
  // nearest-theta sampled user; value functions are independent, so this
  // phase is parallel.
  //
  // snapshot_theta is non-decreasing when order_by_theta is set; for the
  // ablation path we search linearly.
  auto nearest_snapshot = [&](double t) -> size_t {
    if (config.order_by_theta) {
      const auto it = std::lower_bound(snapshot_theta.begin(),
                                       snapshot_theta.end(), t);
      size_t idx = static_cast<size_t>(it - snapshot_theta.begin());
      if (idx == snapshot_theta.size()) return idx - 1;
      if (idx > 0 &&
          t - snapshot_theta[idx - 1] <= snapshot_theta[idx] - t) {
        return idx - 1;
      }
      return idx;
    }
    size_t best = 0;
    double best_d = std::abs(snapshot_theta[0] - t);
    for (size_t k = 1; k < snapshot_theta.size(); ++k) {
      const double d = std::abs(snapshot_theta[k] - t);
      if (d < best_d) {
        best_d = d;
        best = k;
      }
    }
    return best;
  };

  // Each out-of-sample user's step, then the users counting-sorted by
  // step (ascending id within a step), so a chunk of that order walks the
  // log forward: it replays the log into its own Dyn state up to its
  // first user's step and then advances step by step. A list depends
  // only on its user and step, so the collection is the same for every
  // chunking and pool size.
  const size_t steps = snapshot_theta.size();
  std::vector<uint32_t> step_of(n_users, 0);
  ParallelForChunks(config.pool, 0, n_users, [&](size_t lo, size_t hi) {
    for (size_t uu = lo; uu < hi; ++uu) {
      if (!in_sample[uu]) {
        step_of[uu] = static_cast<uint32_t>(nearest_snapshot(theta_[uu]));
      }
    }
  });
  std::vector<size_t> step_begin(steps + 1, 0);
  for (size_t uu = 0; uu < n_users; ++uu) {
    if (!in_sample[uu]) ++step_begin[step_of[uu] + 1];
  }
  std::partial_sum(step_begin.begin(), step_begin.end(), step_begin.begin());
  std::vector<UserId> order(step_begin[steps]);
  for (size_t uu = 0; uu < n_users; ++uu) {
    if (!in_sample[uu]) {
      order[step_begin[step_of[uu]]++] = static_cast<UserId>(uu);
    }
  }

  ParallelForChunks(config.pool, 0, order.size(), [&](size_t lo, size_t hi) {
    ScoringContext ctx;
    DynCoverage local(train.num_items());
    size_t replayed = 0;  // log steps applied to `local`
    ForEachScaledUser(
        *accuracy_, std::span<const UserId>(order).subspan(lo, hi - lo), ctx,
        [&](UserId u, std::span<const double> raw, RowScale scale) {
          const size_t uu = static_cast<size_t>(u);
          for (; replayed <= step_of[uu]; ++replayed) {
            for (size_t j = log_offsets[replayed];
                 j < log_offsets[replayed + 1]; ++j) {
              local.Observe(log_items[j]);
            }
          }
          CopyItemIds(SelectGancTopKUnrated(raw, scale, theta_[uu],
                                            local.Row(u, ctx), train, u,
                                            top_n, ctx),
                      result[uu]);
        });
  });
  return result;
}

double CollectionValue(const AccuracyScorer& accuracy,
                       const std::vector<double>& theta, CoverageKind kind,
                       const RatingDataset& train, const TopNCollection& topn,
                       uint64_t seed) {
  assert(topn.size() == static_cast<size_t>(train.num_users()));
  // Appendix B: with Dyn, c over the final collection counts each item's
  // total recommendation frequency.
  std::vector<uint32_t> counts(static_cast<size_t>(train.num_items()), 0);
  for (const auto& pu : topn) {
    for (ItemId i : pu) ++counts[static_cast<size_t>(i)];
  }
  const std::unique_ptr<CoverageModel> static_cov =
      kind == CoverageKind::kDyn ? nullptr : MakeCoverage(kind, train, seed);

  double value = 0.0;
  ScoringContext ctx;
  ForEachScoredUser(
      accuracy, 0, static_cast<size_t>(train.num_users()), ctx,
      [&](UserId u, std::span<const double> a) {
        const double t = theta[static_cast<size_t>(u)];
        double acc_sum = 0.0, cov_sum = 0.0;
        for (ItemId i : topn[static_cast<size_t>(u)]) {
          acc_sum += a[static_cast<size_t>(i)];
          cov_sum += kind == CoverageKind::kDyn
                         ? DynScoreTable::Formula(counts[static_cast<size_t>(i)])
                         : static_cov->Score(u, i);
        }
        value += (1.0 - t) * acc_sum + t * cov_sum;
      });
  return value;
}

}  // namespace ganc
