// ShardRouter / ServiceShard unit suite: the user->shard hash is a
// persisted contract (golden values pinned here), routing must be
// stable and reasonably balanced, unknown users must fall back to
// shard 0, and a sharded router must serve bit-identical lists to a
// single unsharded service.

#include "serve/shard_router.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "recommender/model_io.h"
#include "recommender/psvd.h"
#include "serve/recommendation_service.h"
#include "serve/service_shard.h"
#include "util/metrics.h"

namespace ganc {
namespace {

RatingDataset MakeTrain() {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 50;
  spec.num_items = 90;
  spec.mean_activity = 16.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

// Builds a router of `num_shards` shards over a freshly fitted PSVD
// snapshot saved at `path` (so Publish works too).
Result<std::unique_ptr<ShardRouter>> BuildRouter(const RatingDataset& train,
                                                 const std::string& path,
                                                 size_t num_shards,
                                                 ServiceConfig config = {}) {
  return ShardRouter::Load(SnapshotKind::kModel, path, train, num_shards,
                           config);
}

std::string SaveModel(const RatingDataset& train, const std::string& name,
                      int factors) {
  PsvdRecommender model(PsvdConfig{.num_factors = factors});
  EXPECT_TRUE(model.Fit(train).ok());
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(SaveModelFile(model, path).ok());
  return path;
}

TEST(ShardHashTest, GoldenValuesArePinned) {
  // These exact values are a persisted contract: transcripts, per-shard
  // store segments, and multi-process routing all depend on the same
  // user landing on the same shard forever. If this test fails, the
  // hash changed — that is a data-format break, not a test to update.
  EXPECT_EQ(ShardForUser(0, 3), 1u);
  EXPECT_EQ(ShardForUser(1, 3), 2u);
  EXPECT_EQ(ShardForUser(2, 3), 1u);
  EXPECT_EQ(ShardForUser(3, 3), 0u);
  EXPECT_EQ(ShardForUser(4, 3), 1u);
  EXPECT_EQ(ShardForUser(5, 3), 2u);
  EXPECT_EQ(ShardForUser(6, 3), 2u);
  EXPECT_EQ(ShardForUser(7, 3), 0u);
  EXPECT_EQ(ShardForUser(1000000, 3), ShardForUser(1000000, 3));
  EXPECT_EQ(ShardForUser(42, 1), 0u);
}

TEST(ShardHashTest, StableAcrossCallsAndDistinctFromModulo) {
  // Stability: pure function of (user, num_shards).
  for (UserId u = 0; u < 500; ++u) {
    const size_t first = ShardForUser(u, 7);
    EXPECT_LT(first, 7u);
    EXPECT_EQ(first, ShardForUser(u, 7));
  }
  // Sanity that it actually mixes: a contiguous id range must not map
  // contiguously (plain u % N would, and would put all head users of a
  // sorted-by-activity corpus on adjacent shards).
  int same_as_modulo = 0;
  for (UserId u = 0; u < 500; ++u) {
    if (ShardForUser(u, 7) == static_cast<size_t>(u) % 7) ++same_as_modulo;
  }
  EXPECT_LT(same_as_modulo, 250);
}

TEST(ShardHashTest, DistributionIsBalanced) {
  constexpr int kUsers = 100000;
  for (const size_t shards : {2u, 3u, 8u}) {
    std::vector<int> counts(shards, 0);
    for (UserId u = 0; u < kUsers; ++u) {
      ++counts[ShardForUser(u, shards)];
    }
    const double mean = static_cast<double>(kUsers) / shards;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_GT(counts[s], mean * 0.9)
          << "shard " << s << "/" << shards << " underloaded";
      EXPECT_LT(counts[s], mean * 1.1)
          << "shard " << s << "/" << shards << " overloaded";
    }
  }
}

TEST(ShardRouterTest, UnknownUsersRouteToFallbackShardZero) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "router_fallback.gam", 8);
  auto router = BuildRouter(train, path, 3);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ((*router)->IndexFor(-1), 0u);
  EXPECT_EQ((*router)->IndexFor(-1000), 0u);
  EXPECT_EQ((*router)->IndexFor(train.num_users()), 0u);
  EXPECT_EQ((*router)->IndexFor(train.num_users() + 12345), 0u);
  // In-range users route by the hash.
  for (UserId u = 0; u < train.num_users(); ++u) {
    EXPECT_EQ((*router)->IndexFor(u), ShardForUser(u, 3));
  }
  // The fallback shard rejects out-of-range ids with the canonical
  // service error, byte-identical to an unsharded deployment.
  std::vector<ItemId> out;
  const Status sharded = (*router)->TopNInto(train.num_users() + 5, 5, {},
                                             &out, nullptr);
  EXPECT_FALSE(sharded.ok());

  Result<std::unique_ptr<RecommendationService>> single =
      RecommendationService::LoadModelService(path, train, {});
  ASSERT_TRUE(single.ok());
  const Status unsharded =
      (*single)->TopNInto(train.num_users() + 5, 5, {}, &out);
  EXPECT_EQ(sharded.message(), unsharded.message());
}

TEST(ShardRouterTest, ShardedRouterServesBitIdenticalToSingleService) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "router_parity.gam", 8);
  Result<std::unique_ptr<RecommendationService>> single =
      RecommendationService::LoadModelService(path, train, {});
  ASSERT_TRUE(single.ok());
  for (const size_t shards : {1u, 2u, 3u, 5u}) {
    auto router = BuildRouter(train, path, shards);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    std::vector<ItemId> expected, got;
    for (UserId u = 0; u < train.num_users(); ++u) {
      ASSERT_TRUE((*single)->TopNInto(u, 5, {}, &expected).ok());
      uint64_t version = 0;
      ASSERT_TRUE((*router)->TopNInto(u, 5, {}, &got, &version).ok());
      EXPECT_EQ(got, expected) << "user " << u << " shards " << shards;
      EXPECT_GT(version, 0u);
    }
  }
}

TEST(ShardRouterTest, MisroutedInRangeUsersAreRejectedByTheShard) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "router_misroute.gam", 8);
  auto shard = ServiceShard::Load(SnapshotKind::kModel, path, train,
                                  ShardSpec{1, 3}, {});
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  int owned = 0, rejected = 0;
  std::vector<ItemId> out;
  for (UserId u = 0; u < train.num_users(); ++u) {
    const Status s = (*shard)->TopNInto(u, 5, {}, &out, nullptr);
    if ((*shard)->OwnsUser(u)) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      ++owned;
    } else {
      EXPECT_FALSE(s.ok());
      EXPECT_NE(s.message().find("not owned by shard 1/3"),
                std::string::npos);
      ++rejected;
    }
  }
  EXPECT_GT(owned, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ShardRouterTest, PerShardStoreSegmentsServeOwnedUsersOnly) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "router_store.gam", 8);
  // Build the full store through an unsharded service (exact lists by
  // construction), then attach it to a sharded router.
  Result<std::unique_ptr<RecommendationService>> single =
      RecommendationService::LoadModelService(path, train, {});
  ASSERT_TRUE(single.ok());
  const std::vector<UserId> all = HeadUsersByActivity(train, 0);
  Result<TopNStore> full = (*single)->BuildStore(all, 5);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto store = std::make_shared<const TopNStore>(std::move(full).value());

  ServiceConfig config;
  config.metrics = std::make_shared<MetricsRegistry>();
  auto router = BuildRouter(train, path, 3, config);
  ASSERT_TRUE(router.ok());
  ASSERT_TRUE((*router)->AttachStore(store).ok());
  // Store-served lists must still match the live reference.
  std::vector<ItemId> expected, got;
  for (UserId u = 0; u < train.num_users(); ++u) {
    ASSERT_TRUE((*single)->TopNInto(u, 5, {}, &expected).ok());
    ASSERT_TRUE((*router)->TopNInto(u, 5, {}, &got, nullptr).ok());
    EXPECT_EQ(got, expected) << "user " << u;
  }
  // And the segments actually served from the store.
  EXPECT_GT(config.metrics->Snapshot().CounterValue("serve_store_hits_total"),
            0u);
}

TEST(ShardRouterTest, FromShardsValidatesThePartition) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "router_spec.gam", 8);
  // Wrong position for the spec.
  auto shard = ServiceShard::Load(SnapshotKind::kModel, path, train,
                                  ShardSpec{1, 2}, {});
  ASSERT_TRUE(shard.ok());
  std::vector<std::unique_ptr<ServiceShard>> wrong;
  wrong.push_back(std::move(shard).value());
  EXPECT_FALSE(ShardRouter::FromShards(std::move(wrong)).ok());
  // Empty shard list.
  EXPECT_FALSE(ShardRouter::FromShards({}).ok());
  // Invalid specs at the shard level.
  EXPECT_FALSE(ServiceShard::Load(SnapshotKind::kModel, path, train,
                                  ShardSpec{3, 3}, {})
                   .ok());
  EXPECT_FALSE(ServiceShard::Load(SnapshotKind::kModel, path, train,
                                  ShardSpec{0, 0}, {})
                   .ok());
}

TEST(ShardRouterTest, StatsSumAcrossShards) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "router_stats.gam", 8);
  ServiceConfig config;
  config.metrics = std::make_shared<MetricsRegistry>();
  auto router = BuildRouter(train, path, 3, config);
  ASSERT_TRUE(router.ok());
  std::vector<ItemId> out;
  for (UserId u = 0; u < train.num_users(); ++u) {
    ASSERT_TRUE((*router)->TopNInto(u, 5, {}, &out, nullptr).ok());
  }
  // Every shard counts into the one configured registry.
  EXPECT_EQ(config.metrics->Snapshot().CounterValue("serve_requests_total"),
            static_cast<uint64_t>(train.num_users()));
}

}  // namespace
}  // namespace ganc
