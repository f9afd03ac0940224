#include "core/coverage.h"

#include <cmath>
#include <cstring>
#include <span>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/scoring_context.h"

namespace ganc {
namespace {

RatingDataset SyntheticTrain() {
  auto ds = GenerateSynthetic(TinySpec());
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(RandCoverageTest, UnitIntervalDeterministic) {
  RandCoverage cov(100, 7);
  for (UserId u = 0; u < 5; ++u) {
    for (ItemId i = 0; i < 100; ++i) {
      const double s = cov.Score(u, i);
      EXPECT_GE(s, 0.0);
      EXPECT_LT(s, 1.0);
      EXPECT_DOUBLE_EQ(s, cov.Score(u, i));  // stable
    }
  }
}

TEST(RandCoverageTest, VariesAcrossUsersAndItems) {
  RandCoverage cov(100, 8);
  EXPECT_NE(cov.Score(0, 1), cov.Score(0, 2));
  EXPECT_NE(cov.Score(0, 1), cov.Score(1, 1));
}

TEST(StatCoverageTest, InverseSqrtOfPopularity) {
  const RatingDataset ds = SyntheticTrain();
  StatCoverage cov(ds);
  for (ItemId i = 0; i < ds.num_items(); ++i) {
    EXPECT_NEAR(cov.Score(0, i),
                1.0 / std::sqrt(static_cast<double>(ds.Popularity(i)) + 1.0),
                1e-12);
  }
}

TEST(StatCoverageTest, UnratedItemGetsMaxScore) {
  RatingDatasetBuilder b(2, 3);
  ASSERT_TRUE(b.Add(0, 0, 3.0f).ok());
  ASSERT_TRUE(b.Add(1, 0, 3.0f).ok());
  auto ds = std::move(b).Build();
  ASSERT_TRUE(ds.ok());
  StatCoverage cov(*ds);
  EXPECT_DOUBLE_EQ(cov.Score(0, 2), 1.0);
  EXPECT_LT(cov.Score(0, 0), 1.0);
}

TEST(DynCoverageTest, StartsAtOneAndDecays) {
  DynCoverage cov(4);
  EXPECT_DOUBLE_EQ(cov.Score(0, 2), 1.0);
  cov.Observe(2);
  EXPECT_NEAR(cov.Score(0, 2), 1.0 / std::sqrt(2.0), 1e-12);
  cov.Observe(2);
  EXPECT_NEAR(cov.Score(0, 2), 1.0 / std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(cov.Score(0, 1), 1.0);  // untouched item unchanged
}

TEST(DynCoverageTest, DiminishingReturnsProperty) {
  // The submodularity driver: the marginal coverage gain of an item is
  // non-increasing in how often it has been recommended (A subset of B =>
  // gain under A >= gain under B).
  DynCoverage a(3), b(3);
  b.Observe(0);
  b.Observe(0);  // B has strictly more observations of item 0
  EXPECT_GE(a.Score(0, 0), b.Score(0, 0));
  // And scores are strictly decreasing in the count.
  double prev = 2.0;
  DynCoverage c(1);
  for (int k = 0; k < 10; ++k) {
    const double s = c.Score(0, 0);
    EXPECT_LT(s, prev);
    prev = s;
    c.Observe(0);
  }
}

TEST(DynCoverageTest, SnapshotRoundTrip) {
  DynCoverage cov(3);
  cov.Observe(1);
  cov.Observe(1);
  cov.Observe(2);
  const std::vector<uint32_t> snap = cov.counts();
  DynCoverage restored(3);
  restored.SetCounts(snap);
  for (ItemId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(restored.Score(0, i), cov.Score(0, i));
  }
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

TEST(DynScoreTableTest, EveryCountKeepsTheFormulasBits) {
  // Counts on both sides of the table's end read 1 / sqrt(f + 1) exactly,
  // through the table and through DynCoverage's value row alike.
  const uint32_t n = 2 * DynScoreTable::kSize + 3;
  std::vector<uint32_t> counts(n);
  for (uint32_t f = 0; f < n; ++f) counts[f] = f;
  counts.push_back(4000000000u);
  DynCoverage dyn(static_cast<int32_t>(counts.size()));
  dyn.SetCounts(counts);
  const DynScoreTable& table = DynScoreTable::Get();
  ScoringContext ctx;
  const std::span<const double> row = dyn.Row(0, ctx);
  ASSERT_EQ(row.size(), counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t want =
        Bits(1.0 / std::sqrt(static_cast<double>(counts[i]) + 1.0));
    EXPECT_EQ(Bits(table.Score(counts[i])), want) << counts[i];
    EXPECT_EQ(Bits(dyn.Score(0, static_cast<ItemId>(i))), want) << counts[i];
    EXPECT_EQ(Bits(row[i]), want) << counts[i];
  }
}

TEST(DynCoverageTest, ObserveKeepsTheValueRowInStep) {
  // Observe past the table's end: every value equals the formula at the
  // item's running count.
  DynCoverage dyn(3);
  for (uint32_t k = 0; k < DynScoreTable::kSize + 5; ++k) {
    dyn.Observe(1);
    if (k % 3 == 0) dyn.Observe(2);
  }
  ScoringContext ctx;
  const std::span<const double> row = dyn.Row(0, ctx);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Bits(row[i]), Bits(DynScoreTable::Formula(dyn.counts()[i])));
  }
}

// RandCoverage::Score as it was before the coverage rows: the golden.
double GoldenRandScore(uint64_t seed, UserId u, ItemId i) {
  uint64_t z = seed ^ (static_cast<uint64_t>(u) * 0x9E3779B97F4A7C15ULL) ^
               (static_cast<uint64_t>(i) + 0xBF58476D1CE4E5B9ULL);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

TEST(CoverageRowTest, EveryRowIsItsScoresBitForBit) {
  const RatingDataset ds = SyntheticTrain();
  const int32_t ni = ds.num_items();
  DynCoverage dyn(ni);
  for (ItemId i = 0; i < ni; i += 3) dyn.Observe(i);
  const RandCoverage rand_cov(ni, 11);
  const StatCoverage stat(ds);
  ScoringContext ctx;
  for (UserId u : {0, 1, 17}) {
    for (const CoverageModel* cov :
         {static_cast<const CoverageModel*>(&dyn),
          static_cast<const CoverageModel*>(&rand_cov),
          static_cast<const CoverageModel*>(&stat)}) {
      const std::span<const double> row = cov->Row(u, ctx);
      ASSERT_EQ(row.size(), static_cast<size_t>(ni)) << cov->name();
      for (ItemId i = 0; i < ni; ++i) {
        EXPECT_EQ(Bits(row[static_cast<size_t>(i)]), Bits(cov->Score(u, i)))
            << cov->name() << " user " << u << " item " << i;
      }
    }
    for (ItemId i = 0; i < ni; ++i) {
      EXPECT_EQ(Bits(rand_cov.Score(u, i)), Bits(GoldenRandScore(11, u, i)));
    }
  }
}

TEST(MakeCoverageTest, FactoryProducesCorrectKinds) {
  const RatingDataset ds = SyntheticTrain();
  EXPECT_EQ(MakeCoverage(CoverageKind::kRand, ds, 1)->name(), "Rand");
  EXPECT_EQ(MakeCoverage(CoverageKind::kStat, ds, 1)->name(), "Stat");
  EXPECT_EQ(MakeCoverage(CoverageKind::kDyn, ds, 1)->name(), "Dyn");
  EXPECT_NE(dynamic_cast<DynCoverage*>(
                MakeCoverage(CoverageKind::kDyn, ds, 1).get()),
            nullptr);
}

TEST(CoverageKindNameTest, Names) {
  EXPECT_EQ(CoverageKindName(CoverageKind::kRand), "Rand");
  EXPECT_EQ(CoverageKindName(CoverageKind::kStat), "Stat");
  EXPECT_EQ(CoverageKindName(CoverageKind::kDyn), "Dyn");
}

}  // namespace
}  // namespace ganc
