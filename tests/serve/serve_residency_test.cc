// Out-of-core serving regression: a service backed by a mapped v3
// dataset cache, a mapped model artifact, and a mapped top-N store must
// answer store-hit requests without ever materializing the full rating
// matrix. Only the first live-scored request (a store miss) pays the
// one-time materialization — that boundary is asserted explicitly so a
// future EnsureResident call sneaking into the cold path fails here.

#include "serve/recommendation_service.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "recommender/model_io.h"
#include "recommender/pop.h"
#include "serve/topn_store.h"

namespace ganc {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ServeResidencyTest, StoreBackedServingNeverMaterializesMappedDataset) {
  // Build all three artifacts from an eagerly generated dataset.
  SyntheticSpec spec = TinySpec();
  spec.num_users = 120;
  spec.num_items = 80;
  spec.mean_activity = 10.0;
  auto built = GenerateSynthetic(spec);
  ASSERT_TRUE(built.ok());
  const std::string cache_path = TestPath("serve_residency.gdc");
  const std::string model_path = TestPath("serve_residency.gam");
  const std::string store_path = TestPath("serve_residency.gts");
  ASSERT_TRUE(built->SaveBinaryFile(cache_path).ok());

  PopRecommender pop;
  ASSERT_TRUE(pop.Fit(*built).ok());
  ASSERT_TRUE(SaveModelFile(pop, model_path).ok());
  std::vector<UserId> head;
  for (UserId u = 0; u < 40; ++u) head.push_back(u);
  {
    ServiceConfig config;
    config.micro_batching = false;
    auto service = RecommendationService::Create(pop, *built, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    auto store = (*service)->BuildStore(head, /*n=*/5);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store->SaveFile(store_path).ok());
  }

  // Cold start the serving process shape: everything mapped.
  auto train = RatingDataset::LoadFile(cache_path);
  ASSERT_TRUE(train.ok()) << train.status().ToString();
  ASSERT_TRUE(train->IsMapped());
  ServiceConfig config;
  config.micro_batching = false;
  config.cache_capacity = 0;  // exercise the store path, not the LRU
  config.metrics = std::make_shared<MetricsRegistry>();
  auto service =
      RecommendationService::LoadModelService(model_path, *train, config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto store = TopNStore::LoadFile(store_path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(
      (*service)
          ->AttachStore(
              std::make_shared<const TopNStore>(std::move(store).value()))
          .ok());
  EXPECT_FALSE(train->ResidencyMaterialized());

  // Every store-hit request stays on the mapped rows.
  std::vector<ItemId> out;
  for (const UserId u : head) {
    ASSERT_TRUE((*service)->TopNInto(u, 5, {}, &out).ok()) << "user " << u;
    EXPECT_FALSE(out.empty()) << "user " << u;
  }
  EXPECT_EQ(config.metrics->Snapshot().CounterValue("serve_store_hits_total"),
            head.size());
  EXPECT_FALSE(train->ResidencyMaterialized())
      << "store-backed serving materialized the mapped rating matrix";

  // A store miss falls back to live scoring, which is the one path that
  // is allowed to materialize (and must still answer correctly).
  const UserId miss = static_cast<UserId>(head.size());
  ASSERT_TRUE((*service)->TopNInto(miss, 5, {}, &out).ok());
  EXPECT_FALSE(out.empty());
  EXPECT_TRUE(train->ResidencyMaterialized());

  std::remove(cache_path.c_str());
  std::remove(model_path.c_str());
  std::remove(store_path.c_str());
}

}  // namespace
}  // namespace ganc
