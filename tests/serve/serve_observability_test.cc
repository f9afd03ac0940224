// Serving observability suite. Pins the acceptance identities of the
// metrics layer: request counters are exact (requests == cache + store
// + live) in the single-service, in-process-router, and per-shard-
// registry topologies, across a mid-run PUBLISH; per-shard registry
// merges are associative; and the live novelty/coverage accounting
// matches an offline recomputation from the same served lists (exact
// for coverage counts, <= 1e-9 relative for novelty sums).

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "recommender/model_io.h"
#include "recommender/psvd.h"
#include "serve/recommendation_service.h"
#include "serve/serve_metrics.h"
#include "serve/service_shard.h"
#include "serve/shard_router.h"
#include "serve/topn_store.h"
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

std::string SaveModel(const RatingDataset& train, const std::string& name,
                      int factors) {
  PsvdRecommender model(PsvdConfig{.num_factors = factors});
  EXPECT_TRUE(model.Fit(train).ok());
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(SaveModelFile(model, path).ok());
  return path;
}

// Every test passes an explicit registry, so the process-global
// registry never accumulates serve_* series in this binary and counter
// assertions stay exact regardless of test order.
ServiceConfig ConfigWith(std::shared_ptr<MetricsRegistry> registry) {
  ServiceConfig config;
  config.metrics = std::move(registry);
  config.micro_batching = false;
  config.cache_capacity = 1024;
  return config;
}

uint64_t HitSum(const MetricsSnapshot& snap) {
  return snap.CounterValue("serve_cache_hits_total") +
         snap.CounterValue("serve_store_hits_total") +
         snap.CounterValue("serve_live_scored_total");
}

TEST(ServeObservabilityTest, SingleServiceCountersAreExact) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "obs_single.gam", 8);
  auto registry = std::make_shared<MetricsRegistry>();
  Result<std::unique_ptr<RecommendationService>> service =
      RecommendationService::LoadModelService(path, train,
                                              ConfigWith(registry));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<ItemId> out;
  uint64_t expected = 0;
  for (UserId u = 0; u < train.num_users(); ++u) {
    ASSERT_TRUE((*service)->TopNInto(u, 5, {}, &out).ok());
    ++expected;
  }
  // Repeats hit the version-keyed result cache; still requests.
  for (UserId u = 0; u < 10; ++u) {
    ASSERT_TRUE((*service)->TopNInto(u, 5, {}, &out).ok());
    ++expected;
  }
  // Rejected requests count as errors only, never as requests.
  EXPECT_FALSE((*service)->TopNInto(train.num_users() + 7, 5, {}, &out).ok());
  EXPECT_FALSE((*service)->TopNInto(-1, 5, {}, &out).ok());

  const MetricsSnapshot snap = registry->Snapshot();
  EXPECT_EQ(snap.CounterValue("serve_requests_total"), expected);
  EXPECT_EQ(HitSum(snap), expected);
  EXPECT_EQ(snap.CounterValue("serve_cache_hits_total"), 10u);
  EXPECT_EQ(snap.CounterValue("serve_request_errors_total"), 2u);
  EXPECT_EQ(snap.CounterValue("serve_request_ns"), expected);
}

TEST(ServeObservabilityTest, StoreHitsJoinTheIdentity) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "obs_store.gam", 8);
  auto registry = std::make_shared<MetricsRegistry>();
  Result<std::unique_ptr<RecommendationService>> service =
      RecommendationService::LoadModelService(path, train,
                                              ConfigWith(registry));
  ASSERT_TRUE(service.ok());
  const std::vector<UserId> all = HeadUsersByActivity(train, 0);
  Result<TopNStore> store = (*service)->BuildStore(all, 5);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(
      (*service)
          ->AttachStore(std::make_shared<const TopNStore>(
              std::move(store).value()))
          .ok());
  std::vector<ItemId> out;
  for (UserId u = 0; u < train.num_users(); ++u) {
    ASSERT_TRUE((*service)->TopNInto(u, 5, {}, &out).ok());
  }
  const MetricsSnapshot snap = registry->Snapshot();
  const uint64_t users = static_cast<uint64_t>(train.num_users());
  EXPECT_EQ(snap.CounterValue("serve_requests_total"), users);
  EXPECT_EQ(HitSum(snap), users);
  EXPECT_GT(snap.CounterValue("serve_store_hits_total"), 0u);
}

TEST(ServeObservabilityTest, RouterCountersAreExactAcrossAPublish) {
  const RatingDataset train = MakeTrain();
  const std::string path_a = SaveModel(train, "obs_router_a.gam", 8);
  const std::string path_b = SaveModel(train, "obs_router_b.gam", 12);
  auto registry = std::make_shared<MetricsRegistry>();
  Result<std::unique_ptr<ShardRouter>> router = ShardRouter::Load(
      SnapshotKind::kModel, path_a, train, 3, ConfigWith(registry));
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  std::vector<ItemId> out;
  const uint64_t users = static_cast<uint64_t>(train.num_users());
  for (UserId u = 0; u < train.num_users(); ++u) {
    ASSERT_TRUE((*router)->TopNInto(u, 5, {}, &out, nullptr).ok());
  }
  ASSERT_TRUE((*router)->Publish(path_b, nullptr).ok());
  for (UserId u = 0; u < train.num_users(); ++u) {
    ASSERT_TRUE((*router)->TopNInto(u, 5, {}, &out, nullptr).ok());
  }

  const MetricsSnapshot snap = (*router)->SnapshotMetrics().value();
  EXPECT_EQ(snap.CounterValue("serve_requests_total"), 2 * users);
  EXPECT_EQ(HitSum(snap), 2 * users);
  // The swap itself is accounted, per shard.
  EXPECT_EQ(snap.CounterValue("serve_publishes_total"), 3u);
  // Domain accounting is generation-scoped: one full pass per snapshot.
  EXPECT_EQ(snap.CounterValue("serve_domain_lists_total{gen=\"0\"}"), users);
  EXPECT_EQ(snap.CounterValue("serve_domain_lists_total{gen=\"1\"}"), users);
}

TEST(ServeObservabilityTest, PerShardRegistriesMergeExactly) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "obs_merge.gam", 8);
  // Three shards, three private registries — the multi-process shape,
  // in-process.
  std::vector<std::shared_ptr<MetricsRegistry>> registries;
  std::vector<std::unique_ptr<ServiceShard>> shards;
  for (size_t k = 0; k < 3; ++k) {
    registries.push_back(std::make_shared<MetricsRegistry>());
    auto shard = ServiceShard::Load(SnapshotKind::kModel, path, train,
                                    ShardSpec{k, 3},
                                    ConfigWith(registries.back()));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    shards.push_back(std::move(shard).value());
  }
  Result<std::unique_ptr<ShardRouter>> router =
      ShardRouter::FromShards(std::move(shards));
  ASSERT_TRUE(router.ok());

  std::vector<ItemId> out;
  const uint64_t users = static_cast<uint64_t>(train.num_users());
  for (UserId u = 0; u < train.num_users(); ++u) {
    ASSERT_TRUE((*router)->TopNInto(u, 5, {}, &out, nullptr).ok());
  }

  // The router's merged view equals the hand-merged per-shard view —
  // in any merge order (associativity + commutativity).
  const MetricsSnapshot merged = (*router)->SnapshotMetrics().value();
  EXPECT_EQ(merged.CounterValue("serve_requests_total"), users);
  EXPECT_EQ(HitSum(merged), users);
  MetricsSnapshot forward = registries[0]->Snapshot();
  forward.MergeFrom(registries[1]->Snapshot());
  forward.MergeFrom(registries[2]->Snapshot());
  MetricsSnapshot backward = registries[2]->Snapshot();
  MetricsSnapshot tail = registries[1]->Snapshot();
  tail.MergeFrom(registries[0]->Snapshot());
  backward.MergeFrom(tail);
  EXPECT_EQ(forward.CounterValue("serve_requests_total"), users);
  for (const auto& [name, value] : forward.series) {
    const MetricValue* other = backward.Find(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(value.u64, other->u64) << name;
    EXPECT_EQ(value.buckets, other->buckets) << name;
  }
  // Per-shard totals really did come from different shards.
  uint64_t sum = 0;
  for (const auto& r : registries) {
    const uint64_t part = r->Snapshot().CounterValue("serve_requests_total");
    EXPECT_GT(part, 0u);
    sum += part;
  }
  EXPECT_EQ(sum, users);
}

TEST(ServeObservabilityTest, WireRoundTripPreservesTheIdentity) {
  // The multi-process router gathers children over METRICSNAP: a
  // serialize/parse/merge chain must leave the counters exact.
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "obs_wire.gam", 8);
  auto registry = std::make_shared<MetricsRegistry>();
  Result<std::unique_ptr<RecommendationService>> service =
      RecommendationService::LoadModelService(path, train,
                                              ConfigWith(registry));
  ASSERT_TRUE(service.ok());
  std::vector<ItemId> out;
  for (UserId u = 0; u < 20; ++u) {
    ASSERT_TRUE((*service)->TopNInto(u, 5, {}, &out).ok());
  }
  Result<MetricsSnapshot> parsed =
      MetricsSnapshot::Parse(registry->Snapshot().Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  MetricsSnapshot merged = *parsed;
  merged.MergeFrom(*parsed);  // two identical "children"
  EXPECT_EQ(parsed->CounterValue("serve_requests_total"), 20u);
  EXPECT_EQ(merged.CounterValue("serve_requests_total"), 40u);
  EXPECT_EQ(HitSum(merged), 40u);
  // Distinct coverage merges as a union: doubling the shard does not
  // double the covered catalog.
  EXPECT_EQ(merged.CounterValue("serve_domain_items_distinct{gen=\"0\"}"),
            parsed->CounterValue("serve_domain_items_distinct{gen=\"0\"}"));
}

TEST(ServeObservabilityTest, LiveDomainMetricsMatchOfflineRecomputation) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "obs_domain.gam", 8);
  auto registry = std::make_shared<MetricsRegistry>();
  Result<std::unique_ptr<RecommendationService>> service =
      RecommendationService::LoadModelService(path, train,
                                              ConfigWith(registry));
  ASSERT_TRUE(service.ok());
  const DomainAccountant* acct = (*service)->domain_accountant();
  ASSERT_NE(acct, nullptr);

  // Serve and keep every list (repeats included: cache hits are served
  // lists too and must be accounted).
  std::vector<std::vector<ItemId>> lists;
  std::vector<ItemId> out;
  for (UserId u = 0; u < train.num_users(); ++u) {
    ASSERT_TRUE((*service)->TopNInto(u, 5, {}, &out).ok());
    lists.push_back(out);
  }
  for (UserId u = 0; u < 15; ++u) {
    ASSERT_TRUE((*service)->TopNInto(u, 5, {}, &out).ok());
    lists.push_back(out);
  }

  // Offline recomputation from the same served lists, through the same
  // novelty table and long-tail partition the accountant exposes.
  uint64_t slots = 0, tail_slots = 0;
  double novelty_sum = 0.0;
  std::set<ItemId> distinct, distinct_tail;
  for (const std::vector<ItemId>& list : lists) {
    for (const ItemId i : list) {
      ++slots;
      novelty_sum += acct->NoveltyBits(i);
      distinct.insert(i);
      if (acct->IsLongTail(i)) {
        ++tail_slots;
        distinct_tail.insert(i);
      }
    }
  }

  const MetricsSnapshot snap = registry->Snapshot();
  const std::string gen = "{gen=\"0\"}";
  EXPECT_EQ(snap.CounterValue("serve_domain_lists_total" + gen),
            lists.size());
  EXPECT_EQ(snap.CounterValue("serve_domain_slots_total" + gen), slots);
  EXPECT_EQ(snap.CounterValue("serve_domain_tail_slots_total" + gen),
            tail_slots);
  EXPECT_EQ(snap.CounterValue("serve_domain_items_distinct" + gen),
            distinct.size());
  EXPECT_EQ(snap.CounterValue("serve_domain_tail_items_distinct" + gen),
            distinct_tail.size());
  const double live_sum =
      snap.DoubleValue("serve_domain_novelty_bits_sum" + gen);
  EXPECT_LE(std::abs(live_sum - novelty_sum),
            1e-9 * std::max(1.0, std::abs(novelty_sum)));
  // The novelty table itself is sane: Laplace smoothing keeps every
  // item finite and non-negative.
  for (ItemId i = 0; i < train.num_items(); ++i) {
    EXPECT_TRUE(std::isfinite(acct->NoveltyBits(i))) << i;
    EXPECT_GE(acct->NoveltyBits(i), 0.0) << i;
  }
}

TEST(ServeObservabilityTest, DomainMetricsCanBeDisabled) {
  const RatingDataset train = MakeTrain();
  const std::string path = SaveModel(train, "obs_nodomain.gam", 8);
  auto registry = std::make_shared<MetricsRegistry>();
  ServiceConfig config = ConfigWith(registry);
  config.domain_metrics = false;
  Result<std::unique_ptr<RecommendationService>> service =
      RecommendationService::LoadModelService(path, train, config);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->domain_accountant(), nullptr);
  std::vector<ItemId> out;
  ASSERT_TRUE((*service)->TopNInto(0, 5, {}, &out).ok());
  const MetricsSnapshot snap = registry->Snapshot();
  EXPECT_EQ(snap.CounterValue("serve_requests_total"), 1u);
  EXPECT_EQ(snap.Find("serve_domain_lists_total{gen=\"0\"}"), nullptr);
}

}  // namespace
}  // namespace ganc
