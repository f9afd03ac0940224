#include "core/ganc.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "util/binary_io.h"
#include "util/rng.h"
#include "util/top_k.h"

#include "core/preference.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"

namespace ganc {
namespace {

struct Fixture {
  RatingDataset train;
  RatingDataset test;
  PsvdRecommender psvd{{.num_factors = 8}};
  std::unique_ptr<NormalizedAccuracyScorer> scorer;
  std::vector<double> theta;

  explicit Fixture(uint64_t seed = 0, int32_t num_items = 200) {
    auto spec = TinySpec();
    spec.num_users = 150;
    spec.num_items = num_items;
    spec.mean_activity = 25.0;
    spec.seed += seed;
    auto ds = GenerateSynthetic(spec);
    EXPECT_TRUE(ds.ok());
    auto split = PerUserRatioSplit(*ds, {.train_ratio = 0.5, .seed = 9});
    EXPECT_TRUE(split.ok());
    train = std::move(split->train);
    test = std::move(split->test);
    EXPECT_TRUE(psvd.Fit(train).ok());
    scorer = std::make_unique<NormalizedAccuracyScorer>(&psvd);
    auto t = ComputePreference(PreferenceModel::kGeneralized, train);
    EXPECT_TRUE(t.ok());
    theta = std::move(t).value();
  }
};

// The selection path before the fused kernel, kept verbatim as the
// spec: MinMaxNormalize's body, UnratedItemsInto with the serving
// layer's set_difference for exclusions, and GreedyTopNForUserInto (its
// Dyn branch read the counts through DynScoreTable, the others called
// Score per candidate).
void SpecMinMaxNormalize(std::span<double> x) {
  if (x.empty()) return;
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
  if (lo == 0.0) lo = *std::find(x.begin(), x.end(), 0.0);
  const double range = hi - lo;
  if (range <= 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    return;
  }
  for (double& v : x) v = (v - lo) / range;
}

void SpecGreedyTopNForUserInto(std::span<const double> accuracy,
                               double theta_u, const CoverageModel& coverage,
                               std::span<const uint32_t> dyn_counts, UserId u,
                               std::span<const ItemId> candidates, int top_n,
                               ScoringContext& ctx) {
  std::vector<ScoredItem>& top = ctx.TopK();
  auto select = [&](auto&& coverage_of) {
    SelectTopKByInto(
        candidates, static_cast<size_t>(top_n),
        [&](ItemId i) {
          return (1.0 - theta_u) * accuracy[static_cast<size_t>(i)] +
                 theta_u * coverage_of(i);
        },
        &top);
  };
  if (!dyn_counts.empty()) {
    const DynScoreTable& table = DynScoreTable::Get();
    select([&](ItemId i) {
      return table.Score(dyn_counts[static_cast<size_t>(i)]);
    });
  } else {
    select([&](ItemId i) { return coverage.Score(u, i); });
  }
}

// The spec's list and scores for one user from the accuracy row a(i).
std::vector<ScoredItem> SpecSelect(std::span<const double> accuracy,
                                   double theta,
                                   const CoverageModel& coverage,
                                   std::span<const uint32_t> dyn_counts,
                                   const RatingDataset& train, UserId u,
                                   std::span<const ItemId> exclusions,
                                   int top_n) {
  ScoringContext ctx;
  train.UnratedItemsInto(u, &ctx.Candidates());
  std::span<const ItemId> candidates = ctx.Candidates();
  std::vector<ItemId> filtered;
  if (!exclusions.empty()) {
    std::set_difference(candidates.begin(), candidates.end(),
                        exclusions.begin(), exclusions.end(),
                        std::back_inserter(filtered));
    candidates = filtered;
  }
  SpecGreedyTopNForUserInto(accuracy, theta, coverage, dyn_counts, u,
                            candidates, top_n, ctx);
  return ctx.TopK();
}

// Same items in the same order with the same score bits.
void ExpectSameSelection(const std::vector<ScoredItem>& got,
                         const std::vector<ScoredItem>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].item, want[j].item) << where << " rank " << j;
    EXPECT_EQ(std::memcmp(&got[j].score, &want[j].score, sizeof(double)), 0)
        << where << " rank " << j << ": " << got[j].score << " vs "
        << want[j].score;
  }
}

// A base model that scores user u with row u mod |rows|.
class FixedRowsRecommender : public Recommender {
 public:
  explicit FixedRowsRecommender(std::vector<std::vector<double>> rows)
      : rows_(std::move(rows)) {}

  using Recommender::Fit;
  Status Fit(const RatingDataset& /*train*/) override { return Status::OK(); }
  int32_t num_items() const override {
    return static_cast<int32_t>(rows_[0].size());
  }
  void ScoreInto(UserId u, std::span<double> out) const override {
    const std::vector<double>& row =
        rows_[static_cast<size_t>(u) % rows_.size()];
    std::copy(row.begin(), row.end(), out.begin());
  }
  std::string name() const override { return "Fixed"; }

 private:
  std::vector<std::vector<double>> rows_;
};

// Rows that stress every rule of the old path: ties, constant rows,
// signed-zero minima, NaN and infinities, and near-ties a few ulps apart.
std::vector<std::vector<double>> AdversarialRows(size_t n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(23);
  auto uniform_row = [&] {
    std::vector<double> row(n);
    for (double& v : row) v = rng.Uniform();
    return row;
  };
  std::vector<std::vector<double>> rows;
  rows.push_back(uniform_row());
  {
    std::vector<double> row = uniform_row();  // coarse: many ties
    for (double& v : row) v = std::round(v * 8.0) / 8.0;
    rows.push_back(row);
  }
  rows.push_back(std::vector<double>(n, 0.25));  // constant
  {
    std::vector<double> row(n, 0.5);  // constant apart from NaN
    row[3] = nan;
    rows.push_back(row);
  }
  for (const double first_zero : {-0.0, 0.0}) {
    std::vector<double> row = uniform_row();  // signed-zero minima
    row[5] = first_zero;
    row[9] = -first_zero;
    row[n - 1] = -0.0;
    rows.push_back(row);
  }
  {
    std::vector<double> row = uniform_row();  // non-positive, max -0.0
    for (double& v : row) v = -std::round(v * 4.0);
    row[2] = -0.0;
    rows.push_back(row);
  }
  {
    std::vector<double> row = uniform_row();  // NaN first: all NaN
    row[0] = nan;
    rows.push_back(row);
  }
  {
    std::vector<double> row = uniform_row();  // NaN inside
    for (size_t i = 1; i < n; i += 17) row[i] = nan;
    rows.push_back(row);
  }
  for (const double big : {inf, -inf}) {
    std::vector<double> row = uniform_row();
    row[11] = big;
    rows.push_back(row);
  }
  {
    std::vector<double> row = uniform_row();
    row[4] = inf;
    row[40] = -inf;
    rows.push_back(row);
  }
  {
    std::vector<double> row = uniform_row();  // inexact subtraction
    for (double& v : row) v = 1e6 + 1e-3 * v;
    rows.push_back(row);
  }
  {
    std::vector<double> row(n);  // near-ties a few ulps apart
    for (size_t i = 0; i < n; ++i) {
      double v = 0.75;
      for (uint64_t s = rng.UniformInt(6); s > 0; --s) {
        v = std::nextafter(v, 1.0);
      }
      row[i] = v;
    }
    row[0] = 0.0;
    row[1] = 1.0;
    rows.push_back(row);
  }
  return rows;
}

TEST(SelectGancTopKUnratedTest, MatchesTheOldPathBitForBit) {
  Fixture f(0, 203);
  const size_t ni = static_cast<size_t>(f.train.num_items());
  const std::vector<std::vector<double>> rows = AdversarialRows(ni);
  FixedRowsRecommender fixed(rows);
  const NormalizedAccuracyScorer fixed_scorer(&fixed);
  PopRecommender pop;
  ASSERT_TRUE(pop.Fit(f.train).ok());
  const TopNIndicatorScorer indicator(&pop, &f.train, 5);

  // Dyn counts straddle the score table: about half lie past its end.
  Rng rng(17);
  std::vector<uint32_t> counts(ni);
  for (uint32_t& c : counts) {
    c = static_cast<uint32_t>(rng.UniformInt(2 * DynScoreTable::kSize));
  }
  counts[0] = DynScoreTable::kSize - 1;
  counts[1] = DynScoreTable::kSize;
  DynCoverage dyn(f.train.num_items());
  dyn.SetCounts(counts);
  const DynCoverage fresh(f.train.num_items());
  const StatCoverage stat(f.train);
  const RandCoverage rand_cov(f.train.num_items(), 3);
  struct Cov {
    const CoverageModel* model;
    std::span<const uint32_t> counts;
  };
  const Cov covs[] = {{&dyn, dyn.counts()},
                      {&fresh, fresh.counts()},
                      {&stat, {}},
                      {&rand_cov, {}}};

  struct Source {
    const char* name;
    const AccuracyScorer* scorer;
    bool normalizes;  // the spec normalizes the base row itself
    int users;
  };
  const Source sources[] = {
      {"adversarial rows", &fixed_scorer, true, static_cast<int>(rows.size())},
      {"PSVD", f.scorer.get(), true, 12},
      {"Pop indicator", &indicator, false, 6},
  };
  ScoringContext ctx;
  std::vector<double> raw(ni);
  for (const Source& src : sources) {
    const Recommender& base = src.scorer == &fixed_scorer
                                  ? static_cast<const Recommender&>(fixed)
                                  : static_cast<const Recommender&>(f.psvd);
    for (UserId u = 0; u < src.users; ++u) {
      RowScale scale;
      src.scorer->ScoreBatchScaledInto(std::span<const UserId>(&u, 1), raw,
                                       std::span<RowScale>(&scale, 1));
      std::vector<double> acc;
      if (src.normalizes) {
        acc = base.ScoreAll(u);
        SpecMinMaxNormalize(acc);
      } else {
        acc = src.scorer->ScoreAll(u);
      }
      // Exclusions: every 7th item, which overlaps the rated ones.
      std::vector<ItemId> some;
      for (ItemId i = 2; i < f.train.num_items(); i += 7) some.push_back(i);
      for (const std::vector<ItemId>& exclusions :
           {std::vector<ItemId>{}, some}) {
        const int all = static_cast<int>(
            SpecSelect(acc, 0.0, stat, {}, f.train, u, exclusions, 1 << 20)
                .size());
        for (const Cov& cov : covs) {
          for (double theta : {0.0, 0.37, 1.0}) {
            // Scan and dense regimes, and more than the candidates.
            for (int top_n : {1, 5, 50, all, all + 7}) {
              const std::vector<ScoredItem> want =
                  SpecSelect(acc, theta, *cov.model, cov.counts, f.train, u,
                             exclusions, top_n);
              const std::vector<ScoredItem>& got = SelectGancTopKUnrated(
                  raw, scale, theta, cov.model->Row(u, ctx), f.train, u,
                  static_cast<size_t>(top_n), ctx, exclusions);
              ExpectSameSelection(
                  got, want,
                  std::string(src.name) + ", user " + std::to_string(u) +
                      ", " + cov.model->name() + ", theta " +
                      std::to_string(theta) + ", top_n " +
                      std::to_string(top_n) + ", " +
                      std::to_string(exclusions.size()) + " exclusions");
            }
          }
        }
      }
    }
  }
  // The kernel leaves the mask zeroed for the next user.
  for (const uint8_t m : ctx.Flags()) ASSERT_EQ(m, 0);
}

uint64_t DoubleBits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

TEST(SelectGancTopKUnratedTest, ItemsWithinTheMarginAreScoredExactly) {
  // An item whose bound p lies 2 ulps below its exact score e, behind a
  // held item whose score sits between the two: the bound alone would
  // drop it, and the 2^-40 margin must keep it.
  Rng rng(5);
  double lo = 0, range = 0, r = 0, theta = 0, c_b = 0, c_a = 0, e_b = 0;
  bool found = false;
  for (int t = 0; t < 1000000 && !found; ++t) {
    lo = -5.0 + 10.0 * rng.Uniform();
    range = (lo + (0.05 + 10.0 * rng.Uniform())) - lo;
    r = lo + range * rng.Uniform();
    theta = rng.Uniform();
    c_b = rng.Uniform();
    const double w = 1.0 - theta;
    e_b = w * ((r - lo) / range) + theta * c_b;
    const double p_b = w * ((r - lo) * (1.0 / range)) + theta * c_b;
    if (DoubleBits(e_b) < DoubleBits(p_b) + 2) continue;
    // A second coverage value whose exact score is one ulp below e_b.
    const double target = std::nextafter(e_b, 0.0);
    c_a = c_b;
    for (int step = 0; step < 64; ++step) {
      c_a = std::nextafter(c_a, 0.0);
      const double e_a = w * ((r - lo) / range) + theta * c_a;
      if (e_a <= target) {
        found = e_a == target;
        break;
      }
    }
  }
  ASSERT_TRUE(found);

  // Item 0 holds e_a; item 8, in the next block, has e_b > e_a but a
  // bound below e_a. Every other item scores 0.
  constexpr int32_t kItems = 16;
  RatingDatasetBuilder builder(2, kItems);
  ASSERT_TRUE(builder.Add(1, 3, 1.0f).ok());
  Result<RatingDataset> train = std::move(builder).Build();
  ASSERT_TRUE(train.ok());
  std::vector<double> raw(kItems, lo), coverage(kItems, 0.0);
  raw[0] = raw[8] = r;
  coverage[0] = c_a;
  coverage[8] = c_b;
  ScoringContext ctx;
  const std::vector<ScoredItem>& got = SelectGancTopKUnrated(
      raw, RowScale{lo, range}, theta, coverage, *train, 0, 1, ctx);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].item, 8);
  EXPECT_EQ(DoubleBits(got[0].score), DoubleBits(e_b));
}

TEST(SelectGancTopKUnratedTest, BlockBoundUsesEachItemsCoverage) {
  // a(i) = 0.5 and c(i) = 0.1 at theta 0.5 give p = 0.3 < 0.5: the block
  // is provably out. Bounding c by 1 instead (p = 0.75) would scan it.
  const double raw[kGancBlock] = {1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5};
  double coverage[kGancBlock] = {0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1};
  EXPECT_TRUE(GancBlockBelow(raw, coverage, 1.0, 1.0, 0.5, 0.5));
  // One item at the cut (p = 0.25 + 0.25) keeps the block.
  coverage[5] = 0.5;
  EXPECT_FALSE(GancBlockBelow(raw, coverage, 1.0, 1.0, 0.5, 0.5));
  coverage[5] = 0.1;
  // So does a NaN bound.
  double nan_raw[kGancBlock];
  std::copy(std::begin(raw), std::end(raw), std::begin(nan_raw));
  nan_raw[7] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(GancBlockBelow(nan_raw, coverage, 1.0, 1.0, 0.5, 0.5));
}

TEST(SelectGancTopKUnratedTest, PureAccuracyAtThetaZero) {
  Fixture f;
  DynCoverage dyn(f.train.num_items());
  const auto acc = f.scorer->ScoreAll(0);
  const auto cands = f.train.UnratedItems(0);
  ScoringContext ctx;
  std::vector<double> raw(acc.size());
  RowScale scale;
  const UserId u = 0;
  f.scorer->ScoreBatchScaledInto(std::span<const UserId>(&u, 1), raw,
                                 std::span<RowScale>(&scale, 1));
  const auto mixed = SelectGancTopKUnrated(raw, scale, 0.0, dyn.Row(0, ctx),
                                           f.train, 0, 5, ctx);
  // theta = 0 ignores coverage entirely: must equal the accuracy top-5.
  const auto pure = SelectTopKFromScores(acc, cands, 5);
  ASSERT_EQ(mixed.size(), 5u);
  for (size_t k = 0; k < 5; ++k) EXPECT_EQ(mixed[k].item, pure[k].item);
}

TEST(SelectGancTopKUnratedTest, PureCoverageAtThetaOne) {
  Fixture f;
  StatCoverage stat(f.train);
  const auto cands = f.train.UnratedItems(0);
  ScoringContext ctx;
  std::vector<double> raw(static_cast<size_t>(f.train.num_items()));
  RowScale scale;
  const UserId u = 0;
  f.scorer->ScoreBatchScaledInto(std::span<const UserId>(&u, 1), raw,
                                 std::span<RowScale>(&scale, 1));
  const auto mixed = SelectGancTopKUnrated(raw, scale, 1.0, stat.Row(0, ctx),
                                           f.train, 0, 5, ctx);
  // theta = 1: every selected item must be among the least popular.
  std::vector<ScoredItem> cov_scored;
  for (ItemId i : cands) cov_scored.push_back({i, stat.Score(0, i)});
  const auto pure = SelectTopK(cov_scored, 5);
  ASSERT_EQ(mixed.size(), 5u);
  for (size_t k = 0; k < 5; ++k) EXPECT_EQ(mixed[k].item, pure[k].item);
}

uint64_t CollectionDigest(const TopNCollection& topn) {
  Fnv1aHasher h;
  for (const std::vector<ItemId>& list : topn) {
    const uint32_t size = static_cast<uint32_t>(list.size());
    h.Update(&size, sizeof(size));
    h.Update(list.data(), list.size() * sizeof(ItemId));
  }
  return h.digest();
}

TEST(GancTest, EveryPathKeepsItsDigestOnEveryPoolSize) {
  // FNV-1a digests of RecommendAll, serial and on pools of 1, 2, 4 and 8
  // threads. On the 200-item fixture they were taken before the binned
  // KDE, the Dyn score table and the branch-free normalization, so they
  // cover only paths that draw no KDE sample. On the 203-item fixture,
  // whose rows end in a partial block of the selection kernel's
  // prefilter, they were taken before the fused kernel and the snapshot
  // log replay.
  Fixture f200;
  Fixture f203(0, 203);
  PopRecommender pop;
  ASSERT_TRUE(pop.Fit(f203.train).ok());
  const TopNIndicatorScorer indicator(&pop, &f203.train, 5);
  struct Case {
    const char* name;
    const Fixture* f;
    const AccuracyScorer* scorer;
    CoverageKind kind;
    int sample_size;
    bool kde_sampling;
    bool order_by_theta;
    uint64_t digest;
  };
  const AccuracyScorer* psvd200 = f200.scorer.get();
  const AccuracyScorer* psvd203 = f203.scorer.get();
  const Case cases[] = {
      {"200 items, Dyn, uniform sample", &f200, psvd200, CoverageKind::kDyn,
       40, false, true, 0xcbd9c469c43ce0f1ULL},
      {"200 items, Dyn, full locally greedy", &f200, psvd200,
       CoverageKind::kDyn, 0, true, true, 0x73af83173a353c12ULL},
      {"200 items, Rand", &f200, psvd200, CoverageKind::kRand, 40, true, true,
       0x4eb950fe4f741324ULL},
      {"200 items, Stat", &f200, psvd200, CoverageKind::kStat, 40, true, true,
       0x566d12a97c9e4713ULL},
      {"Dyn, KDE sample", &f203, psvd203, CoverageKind::kDyn, 40, true, true,
       0x8ed5149e53ef4c74ULL},
      {"Dyn, full locally greedy", &f203, psvd203, CoverageKind::kDyn, 0,
       true, true, 0x7f6ff886236a2fd1ULL},
      {"Dyn, uniform sample", &f203, psvd203, CoverageKind::kDyn, 40, false,
       true, 0xe1afb563cacb2eadULL},
      {"Dyn, arbitrary order", &f203, psvd203, CoverageKind::kDyn, 40, true,
       false, 0xd2fa43dd52c01ee7ULL},
      {"Rand", &f203, psvd203, CoverageKind::kRand, 40, true, true,
       0x824209dee5035d92ULL},
      {"Stat", &f203, psvd203, CoverageKind::kStat, 40, true, true,
       0xb00cc1534fe851e9ULL},
      {"Pop indicator, Dyn", &f203, &indicator, CoverageKind::kDyn, 40, true,
       true, 0x6fed61aa597975a0ULL},
      {"Pop indicator, Stat", &f203, &indicator, CoverageKind::kStat, 40,
       true, true, 0xbea53e38fe05bbedULL},
  };
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (const Case& c : cases) {
    Ganc ganc(c.scorer, c.f->theta, c.kind);
    GancConfig cfg;
    cfg.top_n = 5;
    cfg.sample_size = c.sample_size;
    cfg.kde_sampling = c.kde_sampling;
    cfg.order_by_theta = c.order_by_theta;
    auto serial = ganc.RecommendAll(c.f->train, cfg);
    ASSERT_TRUE(serial.ok()) << c.name;
    EXPECT_EQ(CollectionDigest(*serial), c.digest)
        << c.name << ", serial: 0x" << std::hex << CollectionDigest(*serial);
    for (const auto& pool : pools) {
      cfg.pool = pool.get();
      auto pooled = ganc.RecommendAll(c.f->train, cfg);
      ASSERT_TRUE(pooled.ok()) << c.name;
      EXPECT_EQ(CollectionDigest(*pooled), c.digest)
          << c.name << ", " << pool->num_threads() << " threads";
    }
  }
}

TEST(GancTest, ValidatesInputs) {
  Fixture f;
  // Wrong theta size.
  Ganc bad(f.scorer.get(), std::vector<double>(3, 0.5), CoverageKind::kDyn);
  EXPECT_FALSE(bad.RecommendAll(f.train, {}).ok());
  // Out-of-range theta.
  std::vector<double> theta(static_cast<size_t>(f.train.num_users()), 0.5);
  theta[0] = 1.5;
  Ganc bad2(f.scorer.get(), theta, CoverageKind::kDyn);
  EXPECT_FALSE(bad2.RecommendAll(f.train, {}).ok());
  // Bad N.
  Ganc ok(f.scorer.get(),
          std::vector<double>(static_cast<size_t>(f.train.num_users()), 0.5),
          CoverageKind::kStat);
  GancConfig cfg;
  cfg.top_n = 0;
  EXPECT_FALSE(ok.RecommendAll(f.train, cfg).ok());
}

TEST(GancTest, ProducesFullCollectionOfSizeN) {
  Fixture f;
  for (CoverageKind kind :
       {CoverageKind::kRand, CoverageKind::kStat, CoverageKind::kDyn}) {
    Ganc ganc(f.scorer.get(), f.theta, kind);
    GancConfig cfg;
    cfg.top_n = 5;
    cfg.sample_size = 40;
    auto topn = ganc.RecommendAll(f.train, cfg);
    ASSERT_TRUE(topn.ok()) << CoverageKindName(kind);
    ASSERT_EQ(topn->size(), static_cast<size_t>(f.train.num_users()));
    for (UserId u = 0; u < f.train.num_users(); ++u) {
      const auto& pu = (*topn)[static_cast<size_t>(u)];
      EXPECT_EQ(pu.size(), 5u);
      std::set<ItemId> uniq(pu.begin(), pu.end());
      EXPECT_EQ(uniq.size(), 5u);  // no duplicates
      for (ItemId i : pu) EXPECT_FALSE(f.train.HasRating(u, i));  // unseen
    }
  }
}

TEST(GancTest, DynImprovesCoverageOverPureAccuracy) {
  Fixture f;
  Ganc ganc(f.scorer.get(), f.theta, CoverageKind::kDyn);
  GancConfig cfg;
  cfg.top_n = 5;
  cfg.sample_size = 50;
  auto ganc_topn = ganc.RecommendAll(f.train, cfg);
  ASSERT_TRUE(ganc_topn.ok());

  // Pure accuracy baseline: theta = 0 everywhere.
  Ganc pure(f.scorer.get(),
            std::vector<double>(static_cast<size_t>(f.train.num_users()), 0.0),
            CoverageKind::kDyn);
  auto pure_topn = pure.RecommendAll(f.train, cfg);
  ASSERT_TRUE(pure_topn.ok());

  const MetricsConfig mcfg{.top_n = 5};
  const auto ganc_m = EvaluateTopN(f.train, f.test, *ganc_topn, mcfg);
  const auto pure_m = EvaluateTopN(f.train, f.test, *pure_topn, mcfg);
  EXPECT_GT(ganc_m.coverage, pure_m.coverage);
  EXPECT_LE(ganc_m.gini, pure_m.gini + 1e-9);
}

TEST(GancTest, FullLocallyGreedyWhenSampleCoversAllUsers) {
  Fixture f;
  Ganc ganc(f.scorer.get(), f.theta, CoverageKind::kDyn);
  GancConfig cfg;
  cfg.top_n = 3;
  cfg.sample_size = 0;  // full sequential
  auto topn = ganc.RecommendAll(f.train, cfg);
  ASSERT_TRUE(topn.ok());
  for (const auto& pu : *topn) EXPECT_EQ(pu.size(), 3u);
}

TEST(GancTest, DeterministicPerSeed) {
  Fixture f;
  Ganc ganc(f.scorer.get(), f.theta, CoverageKind::kDyn);
  GancConfig cfg;
  cfg.top_n = 5;
  cfg.sample_size = 30;
  cfg.seed = 77;
  auto a = ganc.RecommendAll(f.train, cfg);
  auto b = ganc.RecommendAll(f.train, cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(GancTest, ParallelMatchesSerial) {
  Fixture f;
  Ganc ganc(f.scorer.get(), f.theta, CoverageKind::kDyn);
  GancConfig serial_cfg;
  serial_cfg.top_n = 5;
  serial_cfg.sample_size = 30;
  auto serial = ganc.RecommendAll(f.train, serial_cfg);
  ASSERT_TRUE(serial.ok());
  // The pool also splits the KDE density evaluations of the sample draw.
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    GancConfig par_cfg = serial_cfg;
    par_cfg.pool = &pool;
    auto parallel = ganc.RecommendAll(f.train, par_cfg);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(*serial, *parallel) << threads << " threads";
  }
}

TEST(GancTest, HigherThetaUsersGetLessPopularItems) {
  // The mechanism behind the paper's "right group of users": users with
  // larger theta receive less popular recommendations on average.
  Fixture f;
  Ganc ganc(f.scorer.get(), f.theta, CoverageKind::kDyn);
  GancConfig cfg;
  cfg.top_n = 5;
  cfg.sample_size = 60;
  auto topn = ganc.RecommendAll(f.train, cfg);
  ASSERT_TRUE(topn.ok());
  // Compare mean recommended popularity of the lowest vs highest theta
  // quartile of users.
  std::vector<size_t> order(f.theta.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return f.theta[a] < f.theta[b]; });
  auto mean_pop = [&](size_t from, size_t to) {
    double acc = 0.0;
    int count = 0;
    for (size_t k = from; k < to; ++k) {
      for (ItemId i : (*topn)[order[k]]) {
        acc += static_cast<double>(f.train.Popularity(i));
        ++count;
      }
    }
    return acc / count;
  };
  const size_t q = order.size() / 4;
  EXPECT_GT(mean_pop(0, q), mean_pop(order.size() - q, order.size()));
}

TEST(GancTest, NameTemplate) {
  Fixture f;
  Ganc ganc(f.scorer.get(), f.theta, CoverageKind::kDyn);
  EXPECT_EQ(ganc.Name("thetaG"), "GANC(PSVD8, thetaG, Dyn)");
}

TEST(CollectionValueTest, GreedyBeatsAntigreedy) {
  Fixture f;
  Ganc ganc(f.scorer.get(), f.theta, CoverageKind::kDyn);
  GancConfig cfg;
  cfg.top_n = 5;
  cfg.sample_size = 0;
  auto greedy = ganc.RecommendAll(f.train, cfg);
  ASSERT_TRUE(greedy.ok());
  // Adversarial baseline: recommend each user the *worst* mixed-score
  // items (bottom-5 by accuracy).
  TopNCollection bad(static_cast<size_t>(f.train.num_users()));
  for (UserId u = 0; u < f.train.num_users(); ++u) {
    auto scores = f.scorer->ScoreAll(u);
    auto cands = f.train.UnratedItems(u);
    std::sort(cands.begin(), cands.end(), [&](ItemId a, ItemId b) {
      return scores[static_cast<size_t>(a)] < scores[static_cast<size_t>(b)];
    });
    cands.resize(5);
    bad[static_cast<size_t>(u)] = cands;
  }
  const double v_greedy = CollectionValue(*f.scorer, f.theta,
                                          CoverageKind::kDyn, f.train, *greedy);
  const double v_bad =
      CollectionValue(*f.scorer, f.theta, CoverageKind::kDyn, f.train, bad);
  EXPECT_GT(v_greedy, v_bad);
}

TEST(SubmodularityPropertyTest, MarginalGainsDiminish) {
  // delta(i | A) >= delta(i | B) for A subset of B, where delta is the
  // incremental value of recommending item i once more under Dyn.
  Fixture f;
  DynCoverage state_a(f.train.num_items());
  DynCoverage state_b(f.train.num_items());
  // Build B as a strict superset of A's observations.
  Rng rng(5);
  for (int k = 0; k < 200; ++k) {
    const ItemId i =
        static_cast<ItemId>(rng.UniformInt(static_cast<uint64_t>(
            f.train.num_items())));
    state_b.Observe(i);
    if (k % 2 == 0) state_a.Observe(i);  // A receives a subset
  }
  // Check: A's counts <= B's counts for every item by construction? No —
  // only when A observes a prefix. Re-build properly:
  DynCoverage a2(f.train.num_items()), b2(f.train.num_items());
  for (int k = 0; k < 100; ++k) {
    const ItemId i =
        static_cast<ItemId>(rng.UniformInt(static_cast<uint64_t>(
            f.train.num_items())));
    a2.Observe(i);
    b2.Observe(i);
  }
  for (int k = 0; k < 100; ++k) {
    const ItemId i =
        static_cast<ItemId>(rng.UniformInt(static_cast<uint64_t>(
            f.train.num_items())));
    b2.Observe(i);  // B = A + extra
  }
  for (ItemId i = 0; i < f.train.num_items(); ++i) {
    EXPECT_GE(a2.Score(0, i), b2.Score(0, i) - 1e-12);
  }
}

TEST(OslgAblationTest, SwitchesProduceValidCollections) {
  Fixture f;
  Ganc ganc(f.scorer.get(), f.theta, CoverageKind::kDyn);
  for (bool kde : {true, false}) {
    for (bool ordered : {true, false}) {
      GancConfig cfg;
      cfg.top_n = 5;
      cfg.sample_size = 30;
      cfg.kde_sampling = kde;
      cfg.order_by_theta = ordered;
      auto topn = ganc.RecommendAll(f.train, cfg);
      ASSERT_TRUE(topn.ok());
      for (const auto& pu : *topn) EXPECT_EQ(pu.size(), 5u);
    }
  }
}

}  // namespace
}  // namespace ganc
