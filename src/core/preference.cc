#include "core/preference.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ganc {

std::vector<double> ActivityPreference(const RatingDataset& train) {
  std::vector<double> theta(static_cast<size_t>(train.num_users()));
  for (UserId u = 0; u < train.num_users(); ++u) {
    theta[static_cast<size_t>(u)] = static_cast<double>(train.Activity(u));
  }
  MinMaxNormalize(&theta);
  return theta;
}

std::vector<double> NormalizedLongtailPreference(const RatingDataset& train,
                                                 const LongTailInfo& tail) {
  std::vector<double> theta(static_cast<size_t>(train.num_users()), 0.0);
  for (UserId u = 0; u < train.num_users(); ++u) {
    const auto& row = train.ItemsOf(u);
    if (row.empty()) continue;
    int32_t in_tail = 0;
    for (const ItemRating& ir : row) {
      if (tail.Contains(ir.item)) ++in_tail;
    }
    theta[static_cast<size_t>(u)] =
        static_cast<double>(in_tail) / static_cast<double>(row.size());
  }
  return theta;
}

namespace {

/// theta_ui of every rating, projected onto [0, 1], in CSR order: user
/// u's values start at train.RowStart(u). `pop` holds the item
/// popularity counts they were computed from.
struct ThetaUi {
  std::vector<double> pop;
  std::vector<double> values;
};

/// Fills `out` in one budgeted row sweep, with popularity from the
/// counting sweep PopularityVector. The sweep validates mapped rows
/// before any item id in them is used as an index, and a corrupt row
/// ends it with that error.
Status BuildThetaUi(const RatingDataset& train, ThetaUi* out) {
  const double num_users = static_cast<double>(train.num_users());
  out->pop = train.PopularityVector();
  out->values.assign(static_cast<size_t>(train.num_ratings()), 0.0);
  double lo = 0.0, hi = 0.0;
  bool first = true;
  GANC_RETURN_NOT_OK(train.SweepRowWindows(
      train.train_budget_bytes(), 1, [&](const RowWindow& w) {
        for (UserId u = w.begin; u < w.end; ++u) {
          double* dst = out->values.data() + train.RowStart(u);
          for (const ItemRating& ir : train.ItemsOf(u)) {
            const double pop = out->pop[static_cast<size_t>(ir.item)];
            const double v =
                static_cast<double>(ir.value) * std::log(num_users / pop);
            *dst++ = v;
            if (first) {
              lo = hi = v;
              first = false;
            } else {
              lo = std::min(lo, v);
              hi = std::max(hi, v);
            }
          }
        }
        return Status::OK();
      }));
  // Global projection onto [0, 1] (Section II-C requires |theta_ui -
  // theta_u| <= 1, guaranteed once both live in the unit interval).
  const double range = hi - lo;
  for (double& v : out->values) v = range > 0.0 ? (v - lo) / range : 0.0;
  return Status::OK();
}

/// Per-user mean of CSR-ordered theta_ui: theta^T before normalization,
/// and the theta^G initial point. Empty rows get 0.
std::vector<double> RowMeans(const RatingDataset& train,
                             const std::vector<double>& values) {
  std::vector<double> means(static_cast<size_t>(train.num_users()), 0.0);
  for (UserId u = 0; u < train.num_users(); ++u) {
    const size_t begin = static_cast<size_t>(train.RowStart(u));
    const size_t count = static_cast<size_t>(train.Activity(u));
    if (count == 0) continue;
    double sum = 0.0;
    for (size_t k = begin; k < begin + count; ++k) sum += values[k];
    means[static_cast<size_t>(u)] = sum / static_cast<double>(count);
  }
  return means;
}

}  // namespace

std::vector<std::vector<double>> PerUserItemPreference(
    const RatingDataset& train) {
  ThetaUi flat;
  if (!BuildThetaUi(train, &flat).ok()) {
    flat.values.assign(static_cast<size_t>(train.num_ratings()), 0.0);
  }
  std::vector<std::vector<double>> theta_ui(
      static_cast<size_t>(train.num_users()));
  for (UserId u = 0; u < train.num_users(); ++u) {
    const auto first = flat.values.begin() +
                       static_cast<std::ptrdiff_t>(train.RowStart(u));
    theta_ui[static_cast<size_t>(u)].assign(first,
                                            first + train.Activity(u));
  }
  return theta_ui;
}

std::vector<double> TfidfPreference(const RatingDataset& train) {
  ThetaUi theta_ui;
  std::vector<double> theta =
      BuildThetaUi(train, &theta_ui).ok()
          ? RowMeans(train, theta_ui.values)
          : std::vector<double>(static_cast<size_t>(train.num_users()), 0.0);
  MinMaxNormalize(&theta);
  return theta;
}

Result<GeneralizedPreferenceResult> GeneralizedPreference(
    const RatingDataset& train, const GeneralizedPreferenceOptions& options) {
  if (options.lambda1 <= 0.0) {
    return Status::InvalidArgument("lambda1 must be positive");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  const int32_t n_users = train.num_users();
  const int32_t n_items = train.num_items();
  ThetaUi theta_ui;
  GANC_RETURN_NOT_OK(BuildThetaUi(train, &theta_ui));
  const auto row_values = [&](UserId u) {
    return std::span<const double>(theta_ui.values)
        .subspan(static_cast<size_t>(train.RowStart(u)),
                 static_cast<size_t>(train.Activity(u)));
  };

  GeneralizedPreferenceResult result;
  // Initial point: equal item weights, i.e. theta^G == theta^T (the paper
  // notes Eq. II.6 reduces to theta^T when w_i = 1).
  result.theta = RowMeans(train, theta_ui.values);
  result.item_weight.assign(static_cast<size_t>(n_items), 1.0);

  std::vector<double> eps(static_cast<size_t>(n_items));
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // w-step (Eq. II.5): w_i = lambda1 / eps_i with the mediocrity
    // coefficient eps_i = sum_{u in U_i} [1 - (theta_ui - theta_u)^2].
    // Each summand is in [0, 1], so eps_i >= 0; items whose raters all sit
    // at maximal disagreement get a tiny floor to keep w finite.
    //
    // One pass over the rows in user order feeds every item's
    // accumulator its raters in ascending user order — the order of
    // U_i — so each eps_i is summed exactly as a column walk would,
    // without a column index or a per-rating search.
    std::fill(eps.begin(), eps.end(), 0.0);
    for (UserId u = 0; u < n_users; ++u) {
      const auto row = train.ItemsOf(u);
      const std::span<const double> values = row_values(u);
      const double theta_u = result.theta[static_cast<size_t>(u)];
      for (size_t k = 0; k < row.size(); ++k) {
        const double d = values[k] - theta_u;
        eps[static_cast<size_t>(row[k].item)] += 1.0 - d * d;
      }
    }
    for (size_t i = 0; i < eps.size(); ++i) {
      result.item_weight[i] = theta_ui.pop[i] == 0.0
                                  ? 0.0
                                  : options.lambda1 / std::max(eps[i], 1e-9);
    }

    // theta-step (Eq. II.6): weighted average of theta_ui.
    double max_delta = 0.0;
    for (UserId u = 0; u < n_users; ++u) {
      const auto row = train.ItemsOf(u);
      if (row.empty()) continue;
      const std::span<const double> values = row_values(u);
      double num = 0.0, den = 0.0;
      for (size_t k = 0; k < row.size(); ++k) {
        const double w =
            result.item_weight[static_cast<size_t>(row[k].item)];
        num += w * values[k];
        den += w;
      }
      const double next = den > 0.0 ? num / den : 0.0;
      max_delta =
          std::max(max_delta,
                   std::abs(next - result.theta[static_cast<size_t>(u)]));
      result.theta[static_cast<size_t>(u)] = next;
    }
    result.iterations = iter + 1;
    if (max_delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Total weighted mediocrity O(w, theta) for diagnostics.
  double objective = 0.0;
  for (UserId u = 0; u < n_users; ++u) {
    const auto row = train.ItemsOf(u);
    const std::span<const double> values = row_values(u);
    for (size_t k = 0; k < row.size(); ++k) {
      const double d = values[k] - result.theta[static_cast<size_t>(u)];
      objective +=
          result.item_weight[static_cast<size_t>(row[k].item)] * (1.0 - d * d);
    }
  }
  result.final_objective = objective;

  if (options.normalize_output) MinMaxNormalize(&result.theta);
  GANC_LOG(Info) << "thetaG: " << result.iterations << " iterations, "
                 << (result.converged ? "converged" : "max-iters");
  return result;
}

std::vector<double> RandomPreference(int32_t num_users, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> theta(static_cast<size_t>(num_users));
  for (double& t : theta) t = rng.Uniform();
  return theta;
}

std::vector<double> ConstantPreference(int32_t num_users, double c) {
  return std::vector<double>(static_cast<size_t>(num_users), c);
}

std::string PreferenceModelName(PreferenceModel model) {
  switch (model) {
    case PreferenceModel::kActivity:
      return "thetaA";
    case PreferenceModel::kNormalized:
      return "thetaN";
    case PreferenceModel::kTfidf:
      return "thetaT";
    case PreferenceModel::kGeneralized:
      return "thetaG";
    case PreferenceModel::kRandom:
      return "thetaR";
    case PreferenceModel::kConstant:
      return "thetaC";
  }
  return "theta?";
}

Result<std::vector<double>> ComputePreference(PreferenceModel model,
                                              const RatingDataset& train,
                                              uint64_t seed, double constant) {
  switch (model) {
    case PreferenceModel::kActivity:
      return ActivityPreference(train);
    case PreferenceModel::kNormalized:
      return NormalizedLongtailPreference(train, ComputeLongTail(train));
    case PreferenceModel::kTfidf:
      return TfidfPreference(train);
    case PreferenceModel::kGeneralized: {
      Result<GeneralizedPreferenceResult> r = GeneralizedPreference(train);
      if (!r.ok()) return r.status();
      return std::move(r).value().theta;
    }
    case PreferenceModel::kRandom:
      return RandomPreference(train.num_users(), seed);
    case PreferenceModel::kConstant:
      return ConstantPreference(train.num_users(), constant);
  }
  return Status::InvalidArgument("unknown preference model");
}

}  // namespace ganc
