#include "core/preference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "util/logging.h"
#include "util/stats.h"

namespace ganc {
namespace {

RatingDataset SyntheticTrain() {
  auto ds = GenerateSynthetic(TinySpec());
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

// --- Reference theta^G: verbatim copy of the solver that located each
// theta_ui with a lower_bound in the rater's row per (i, u) pair, over
// UsersOf and Popularity. It is the executable specification the
// column-walk solver must reproduce bit for bit.

std::vector<std::vector<double>> ReferencePerUserItemPreference(
    const RatingDataset& train) {
  const double num_users = static_cast<double>(train.num_users());
  std::vector<std::vector<double>> theta_ui(
      static_cast<size_t>(train.num_users()));
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (UserId u = 0; u < train.num_users(); ++u) {
    const auto& row = train.ItemsOf(u);
    auto& out = theta_ui[static_cast<size_t>(u)];
    out.reserve(row.size());
    for (const ItemRating& ir : row) {
      const double pop = static_cast<double>(train.Popularity(ir.item));
      const double v =
          static_cast<double>(ir.value) * std::log(num_users / pop);
      out.push_back(v);
      if (first) {
        lo = hi = v;
        first = false;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
  }
  // Global projection onto [0, 1] (Section II-C requires |theta_ui -
  // theta_u| <= 1, guaranteed once both live in the unit interval).
  const double range = hi - lo;
  for (auto& row : theta_ui) {
    for (double& v : row) v = range > 0.0 ? (v - lo) / range : 0.0;
  }
  return theta_ui;
}

Result<GeneralizedPreferenceResult> ReferenceGeneralizedPreference(
    const RatingDataset& train, const GeneralizedPreferenceOptions& options) {
  if (options.lambda1 <= 0.0) {
    return Status::InvalidArgument("lambda1 must be positive");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  const int32_t n_users = train.num_users();
  const int32_t n_items = train.num_items();
  const std::vector<std::vector<double>> theta_ui =
      ReferencePerUserItemPreference(train);

  GeneralizedPreferenceResult result;
  // Initial point: equal item weights, i.e. theta^G == theta^T (the paper
  // notes Eq. II.6 reduces to theta^T when w_i = 1).
  result.theta.assign(static_cast<size_t>(n_users), 0.0);
  for (UserId u = 0; u < n_users; ++u) {
    result.theta[static_cast<size_t>(u)] =
        Mean(theta_ui[static_cast<size_t>(u)]);
  }
  result.item_weight.assign(static_cast<size_t>(n_items), 1.0);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // w-step (Eq. II.5): w_i = lambda1 / eps_i with the mediocrity
    // coefficient eps_i = sum_{u in U_i} [1 - (theta_ui - theta_u)^2].
    // Each summand is in [0, 1], so eps_i >= 0; items whose raters all sit
    // at maximal disagreement get a tiny floor to keep w finite.
    for (ItemId i = 0; i < n_items; ++i) {
      const auto& col = train.UsersOf(i);
      if (col.empty()) {
        result.item_weight[static_cast<size_t>(i)] = 0.0;
        continue;
      }
      double eps = 0.0;
      for (const UserRating& ur : col) {
        // Locate theta_ui for this (u, i): rows are sorted by item id.
        const auto& row = train.ItemsOf(ur.user);
        const auto it = std::lower_bound(
            row.begin(), row.end(), i,
            [](const ItemRating& a, ItemId b) { return a.item < b; });
        const size_t pos = static_cast<size_t>(it - row.begin());
        const double d = theta_ui[static_cast<size_t>(ur.user)][pos] -
                         result.theta[static_cast<size_t>(ur.user)];
        eps += 1.0 - d * d;
      }
      result.item_weight[static_cast<size_t>(i)] =
          options.lambda1 / std::max(eps, 1e-9);
    }

    // theta-step (Eq. II.6): weighted average of theta_ui.
    double max_delta = 0.0;
    for (UserId u = 0; u < n_users; ++u) {
      const auto& row = train.ItemsOf(u);
      if (row.empty()) continue;
      double num = 0.0, den = 0.0;
      for (size_t k = 0; k < row.size(); ++k) {
        const double w =
            result.item_weight[static_cast<size_t>(row[k].item)];
        num += w * theta_ui[static_cast<size_t>(u)][k];
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
    const auto& row = train.ItemsOf(u);
    for (size_t k = 0; k < row.size(); ++k) {
      const double d = theta_ui[static_cast<size_t>(u)][k] -
                       result.theta[static_cast<size_t>(u)];
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

// --- Golden-test inputs and bitwise comparison.

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](double x) { return Bits(x); });
  return out;
}

void ExpectBitIdentical(const GeneralizedPreferenceResult& expected,
                        const GeneralizedPreferenceResult& actual) {
  EXPECT_EQ(Bits(expected.theta), Bits(actual.theta));
  EXPECT_EQ(Bits(expected.item_weight), Bits(actual.item_weight));
  EXPECT_EQ(expected.iterations, actual.iterations);
  EXPECT_EQ(expected.converged, actual.converged);
  EXPECT_EQ(Bits(expected.final_objective), Bits(actual.final_objective));
}

// The 80% train split of a mid-sized synthetic corpus.
RatingDataset SplitTrain() {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 300;
  spec.num_items = 400;
  spec.mean_activity = 30.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  auto split = PerUserRatioSplit(*ds, {.train_ratio = 0.8, .seed = 3});
  EXPECT_TRUE(split.ok());
  return std::move(split->train);
}

// A copy of the tiny corpus inside a larger universe, with every 7th user
// and every 11th item dropped: it has users with empty rows and items
// nobody rated, both inside the id range and past its end.
RatingDataset SparseHolesTrain() {
  const RatingDataset src = SyntheticTrain();
  RatingDatasetBuilder b(src.num_users() + 5, src.num_items() + 7);
  for (UserId u = 0; u < src.num_users(); ++u) {
    if (u % 7 == 3) continue;
    for (const ItemRating& ir : src.ItemsOf(u)) {
      if (ir.item % 11 == 5) continue;
      EXPECT_TRUE(b.Add(u, ir.item, ir.value).ok());
    }
  }
  auto ds = std::move(b).Build();
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

void ExpectMatchesReference(const RatingDataset& train,
                            const GeneralizedPreferenceOptions& options) {
  auto expected = ReferenceGeneralizedPreference(train, options);
  auto actual = GeneralizedPreference(train, options);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectBitIdentical(*expected, *actual);
}

TEST(GeneralizedPreferenceGoldenTest, TinyCorpusMatchesReferenceBitwise) {
  ExpectMatchesReference(SyntheticTrain(), {});
}

TEST(GeneralizedPreferenceGoldenTest, TrainSplitMatchesReferenceBitwise) {
  ExpectMatchesReference(SplitTrain(), {});
}

TEST(GeneralizedPreferenceGoldenTest, EmptyRowsAndColumnsMatchReference) {
  const RatingDataset train = SparseHolesTrain();
  ASSERT_EQ(train.Activity(3), 0);
  ASSERT_EQ(train.Popularity(5), 0);
  ASSERT_EQ(train.Popularity(train.num_items() - 1), 0);
  ExpectMatchesReference(train, {});
}

TEST(GeneralizedPreferenceGoldenTest, NonDefaultOptionsMatchReference) {
  // A capped, unnormalized run stops before convergence, so the
  // iteration count and converged flag are compared on the other branch.
  GeneralizedPreferenceOptions options;
  options.lambda1 = 2.5;
  options.max_iterations = 2;
  options.tolerance = 0.0;
  options.normalize_output = false;
  for (const RatingDataset& train :
       {SyntheticTrain(), SplitTrain(), SparseHolesTrain()}) {
    ExpectMatchesReference(train, options);
  }
}

TEST(GeneralizedPreferenceGoldenTest, PerUserItemAndTfidfMatchReference) {
  for (const RatingDataset& train : {SyntheticTrain(), SparseHolesTrain()}) {
    const auto expected = ReferencePerUserItemPreference(train);
    const auto actual = PerUserItemPreference(train);
    ASSERT_EQ(expected.size(), actual.size());
    std::vector<double> expected_tfidf;
    for (size_t u = 0; u < expected.size(); ++u) {
      EXPECT_EQ(Bits(expected[u]), Bits(actual[u])) << "user " << u;
      expected_tfidf.push_back(Mean(expected[u]));
    }
    MinMaxNormalize(&expected_tfidf);
    EXPECT_EQ(Bits(expected_tfidf), Bits(TfidfPreference(train)));
  }
}

TEST(GeneralizedPreferenceGoldenTest, MappedCacheMatchesReference) {
  // theta^G over a mapped cache needs no residency and returns the bits
  // the reference computes on the eager dataset.
  const RatingDataset train = SplitTrain();
  const std::string path = ::testing::TempDir() + "/preference_golden.gdc";
  ASSERT_TRUE(train.SaveBinaryFile(path).ok());
  auto mapped = RatingDataset::LoadMappedFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  mapped->set_train_budget_bytes(4096);  // many row windows
  auto expected = ReferenceGeneralizedPreference(train, {});
  auto actual = GeneralizedPreference(*mapped, {});
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectBitIdentical(*expected, *actual);
  EXPECT_FALSE(mapped->ResidencyMaterialized());
}

TEST(ActivityPreferenceTest, NormalizedAndMonotone) {
  const RatingDataset ds = SyntheticTrain();
  const auto theta = ActivityPreference(ds);
  ASSERT_EQ(theta.size(), static_cast<size_t>(ds.num_users()));
  for (double t : theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
  // More active user -> larger theta^A.
  UserId hi = 0, lo = 0;
  for (UserId u = 0; u < ds.num_users(); ++u) {
    if (ds.Activity(u) > ds.Activity(hi)) hi = u;
    if (ds.Activity(u) < ds.Activity(lo)) lo = u;
  }
  EXPECT_GT(theta[static_cast<size_t>(hi)], theta[static_cast<size_t>(lo)]);
  EXPECT_DOUBLE_EQ(theta[static_cast<size_t>(hi)], 1.0);
  EXPECT_DOUBLE_EQ(theta[static_cast<size_t>(lo)], 0.0);
}

TEST(NormalizedLongtailPreferenceTest, FractionOfTailItems) {
  // User 0 rates 1 head + 1 tail item -> theta^N = 0.5.
  RatingDatasetBuilder b(10, 3);
  for (UserId u = 0; u < 8; ++u) EXPECT_TRUE(b.Add(u, 0, 4.0f).ok());
  EXPECT_TRUE(b.Add(0, 1, 4.0f).ok());
  EXPECT_TRUE(b.Add(9, 2, 4.0f).ok());
  auto ds = std::move(b).Build();
  ASSERT_TRUE(ds.ok());
  const LongTailInfo tail = ComputeLongTail(*ds);
  ASSERT_FALSE(tail.Contains(0));
  ASSERT_TRUE(tail.Contains(1));
  const auto theta = NormalizedLongtailPreference(*ds, tail);
  EXPECT_DOUBLE_EQ(theta[0], 0.5);
  EXPECT_DOUBLE_EQ(theta[1], 0.0);   // rated only the head item
  EXPECT_DOUBLE_EQ(theta[9], 1.0);   // rated only a tail item
}

TEST(PerUserItemPreferenceTest, ProjectedToUnitInterval) {
  const RatingDataset ds = SyntheticTrain();
  const auto theta_ui = PerUserItemPreference(ds);
  double lo = 1.0, hi = 0.0;
  for (UserId u = 0; u < ds.num_users(); ++u) {
    ASSERT_EQ(theta_ui[static_cast<size_t>(u)].size(),
              ds.ItemsOf(u).size());
    for (double v : theta_ui[static_cast<size_t>(u)]) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST(PerUserItemPreferenceTest, HigherForRareHighlyRatedItems) {
  // theta_ui grows with rating and with rarity (Eq. II.2's two factors).
  RatingDatasetBuilder b(10, 2);
  for (UserId u = 0; u < 10; ++u) EXPECT_TRUE(b.Add(u, 0, 3.0f).ok());
  EXPECT_TRUE(b.Add(0, 1, 5.0f).ok());  // rare item, high rating
  auto ds = std::move(b).Build();
  ASSERT_TRUE(ds.ok());
  const auto theta_ui = PerUserItemPreference(*ds);
  // For user 0: entry 0 is item 0 (popular), entry 1 is item 1 (rare).
  EXPECT_GT(theta_ui[0][1], theta_ui[0][0]);
}

TEST(TfidfPreferenceTest, InUnitIntervalAndDiscriminative) {
  const RatingDataset ds = SyntheticTrain();
  const auto theta = TfidfPreference(ds);
  for (double t : theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
  EXPECT_GT(Stddev(theta), 0.01);  // not collapsed to a constant
}

TEST(GeneralizedPreferenceTest, ConvergesOnSynthetic) {
  const RatingDataset ds = SyntheticTrain();
  auto result = GeneralizedPreference(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_GT(result->iterations, 0);
  for (double t : result->theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

TEST(GeneralizedPreferenceTest, WeightsInverseToMediocrity) {
  const RatingDataset ds = SyntheticTrain();
  auto result = GeneralizedPreference(ds);
  ASSERT_TRUE(result.ok());
  for (ItemId i = 0; i < ds.num_items(); ++i) {
    if (ds.Popularity(i) > 0) {
      EXPECT_GT(result->item_weight[static_cast<size_t>(i)], 0.0);
    } else {
      EXPECT_DOUBLE_EQ(result->item_weight[static_cast<size_t>(i)], 0.0);
    }
  }
}

TEST(GeneralizedPreferenceTest, EqualWeightsReduceToTfidf) {
  // After 0 damping iterations from the theta^T initial point, theta^G
  // equals the (unnormalized) theta^T; with full iterations it should stay
  // correlated strongly (the paper presents theta^G as a refinement).
  const RatingDataset ds = SyntheticTrain();
  auto g = GeneralizedPreference(ds);
  ASSERT_TRUE(g.ok());
  const auto t = TfidfPreference(ds);
  EXPECT_GT(PearsonCorrelation(g->theta, t), 0.8);
}

TEST(GeneralizedPreferenceTest, Figure2ShapeMoreSpreadThanThetaN) {
  // Paper Figure 2: theta^N is right-skewed; theta^G is more normally
  // distributed with larger mean.
  auto spec = TinySpec();
  spec.num_users = 300;
  spec.num_items = 400;
  spec.mean_activity = 30.0;
  auto ds = GenerateSynthetic(spec);
  ASSERT_TRUE(ds.ok());
  const auto theta_n =
      NormalizedLongtailPreference(*ds, ComputeLongTail(*ds));
  auto g = GeneralizedPreference(*ds);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(Mean(g->theta), Mean(theta_n));
}

TEST(GeneralizedPreferenceTest, InvalidOptionsRejected) {
  const RatingDataset ds = SyntheticTrain();
  GeneralizedPreferenceOptions opts;
  opts.lambda1 = 0.0;
  EXPECT_FALSE(GeneralizedPreference(ds, opts).ok());
  opts = {};
  opts.max_iterations = 0;
  EXPECT_FALSE(GeneralizedPreference(ds, opts).ok());
}

TEST(RandomPreferenceTest, UniformInUnitInterval) {
  const auto theta = RandomPreference(1000, 3);
  for (double t : theta) {
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 1.0);
  }
  EXPECT_NEAR(Mean(theta), 0.5, 0.05);
}

TEST(ConstantPreferenceTest, AllEqual) {
  const auto theta = ConstantPreference(10, 0.5);
  for (double t : theta) EXPECT_DOUBLE_EQ(t, 0.5);
}

TEST(ComputePreferenceTest, DispatcherCoversAllModels) {
  const RatingDataset ds = SyntheticTrain();
  for (PreferenceModel m :
       {PreferenceModel::kActivity, PreferenceModel::kNormalized,
        PreferenceModel::kTfidf, PreferenceModel::kGeneralized,
        PreferenceModel::kRandom, PreferenceModel::kConstant}) {
    auto theta = ComputePreference(m, ds);
    ASSERT_TRUE(theta.ok()) << PreferenceModelName(m);
    EXPECT_EQ(theta->size(), static_cast<size_t>(ds.num_users()));
  }
}

TEST(PreferenceModelNameTest, Names) {
  EXPECT_EQ(PreferenceModelName(PreferenceModel::kGeneralized), "thetaG");
  EXPECT_EQ(PreferenceModelName(PreferenceModel::kTfidf), "thetaT");
  EXPECT_EQ(PreferenceModelName(PreferenceModel::kRandom), "thetaR");
}

}  // namespace
}  // namespace ganc
