#include "core/coverage.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "data/synthetic.h"

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
  EXPECT_FALSE(cov.IsDynamic());
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
  EXPECT_FALSE(cov.IsDynamic());
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
  EXPECT_TRUE(cov.IsDynamic());
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
  // through the table, DynCoverage and DynSnapshotView alike.
  const uint32_t n = 2 * DynScoreTable::kSize + 3;
  std::vector<uint32_t> counts(n);
  for (uint32_t f = 0; f < n; ++f) counts[f] = f;
  counts.push_back(4000000000u);
  DynCoverage dyn(static_cast<int32_t>(counts.size()));
  dyn.SetCounts(counts);
  const DynSnapshotView view(counts);
  const DynScoreTable& table = DynScoreTable::Get();
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t want =
        Bits(1.0 / std::sqrt(static_cast<double>(counts[i]) + 1.0));
    EXPECT_EQ(Bits(table.Score(counts[i])), want) << counts[i];
    EXPECT_EQ(Bits(dyn.Score(0, static_cast<ItemId>(i))), want) << counts[i];
    EXPECT_EQ(Bits(view.Score(0, static_cast<ItemId>(i))), want)
        << counts[i];
  }
}

TEST(DynCountsTest, OnlyDynModelsExposeTheirCounts) {
  const RatingDataset ds = SyntheticTrain();
  DynCoverage dyn(ds.num_items());
  dyn.Observe(3);
  EXPECT_EQ(dyn.DynCounts().data(), dyn.counts().data());
  EXPECT_EQ(dyn.DynCounts().size(), dyn.counts().size());
  const DynSnapshotView view(dyn.counts());
  EXPECT_EQ(view.DynCounts().data(), dyn.counts().data());
  EXPECT_TRUE(RandCoverage(ds.num_items(), 1).DynCounts().empty());
  EXPECT_TRUE(StatCoverage(ds).DynCounts().empty());
}

TEST(MakeCoverageTest, FactoryProducesCorrectKinds) {
  const RatingDataset ds = SyntheticTrain();
  EXPECT_EQ(MakeCoverage(CoverageKind::kRand, ds, 1)->name(), "Rand");
  EXPECT_EQ(MakeCoverage(CoverageKind::kStat, ds, 1)->name(), "Stat");
  EXPECT_EQ(MakeCoverage(CoverageKind::kDyn, ds, 1)->name(), "Dyn");
  EXPECT_TRUE(MakeCoverage(CoverageKind::kDyn, ds, 1)->IsDynamic());
}

TEST(CoverageKindNameTest, Names) {
  EXPECT_EQ(CoverageKindName(CoverageKind::kRand), "Rand");
  EXPECT_EQ(CoverageKindName(CoverageKind::kStat), "Stat");
  EXPECT_EQ(CoverageKindName(CoverageKind::kDyn), "Dyn");
}

}  // namespace
}  // namespace ganc
