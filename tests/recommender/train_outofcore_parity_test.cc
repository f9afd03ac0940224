// Out-of-core training parity: for every recommender, fitting against a
// mapped dataset under a tiny residency budget must produce the same
// artifact bytes and top-N lists as fitting the fully resident dataset —
// and the mapped fit must never materialize the full rating matrix.
// Likewise the blocked trainers must be thread-count invariant: 1, 2,
// and 8 worker threads yield byte-identical artifacts, because work is
// partitioned into fixed user blocks and merged in block order.

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "recommender/bpr.h"
#include "recommender/cofirank.h"
#include "recommender/item_knn.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "recommender/random_rec.h"
#include "recommender/random_walk.h"
#include "recommender/rsvd.h"
#include "recommender/user_knn.h"
#include "util/thread_pool.h"

namespace ganc {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

RatingDataset MakeData() {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 300;
  spec.num_items = 120;
  spec.mean_activity = 12.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

// Fresh unfitted models, one factory call per fit so runs stay
// independent. user_block = 32 forces multi-block merges on the
// 300-user fixture; it is part of the algorithm definition, so every
// fit below shares it.
std::vector<std::unique_ptr<Recommender>> MakeModels() {
  std::vector<std::unique_ptr<Recommender>> models;
  models.push_back(std::make_unique<PopRecommender>());
  models.push_back(std::make_unique<RandomRecommender>(123));
  models.push_back(
      std::make_unique<RandomWalkRecommender>(RandomWalkConfig{.beta = 0.6}));
  models.push_back(
      std::make_unique<ItemKnnRecommender>(ItemKnnConfig{.num_neighbors = 10}));
  models.push_back(
      std::make_unique<UserKnnRecommender>(UserKnnConfig{.num_neighbors = 10}));
  models.push_back(std::make_unique<PsvdRecommender>(
      PsvdConfig{.num_factors = 8, .user_block = 32}));
  models.push_back(std::make_unique<RsvdRecommender>(RsvdConfig{
      .num_factors = 6, .num_epochs = 3, .use_biases = true,
      .user_block = 32}));
  models.push_back(std::make_unique<BprRecommender>(
      BprConfig{.num_factors = 5, .num_epochs = 3, .user_block = 32}));
  models.push_back(std::make_unique<CofiRecommender>(
      CofiConfig{.num_factors = 5, .num_epochs = 3, .user_block = 32}));
  return models;
}

std::string FitAndSerialize(Recommender& model, const RatingDataset& train,
                            ThreadPool* pool) {
  const Status fitted = model.Fit(train, pool);
  EXPECT_TRUE(fitted.ok()) << model.name() << ": " << fitted.ToString();
  std::ostringstream os(std::ios::binary);
  const Status saved = model.Save(os);
  EXPECT_TRUE(saved.ok()) << model.name() << ": " << saved.ToString();
  return os.str();
}

TEST(TrainOutOfCoreParityTest, MappedBudgetedFitMatchesResidentFit) {
  const RatingDataset eager = MakeData();
  const std::string path = TestPath("train_outofcore_parity.gdc");
  ASSERT_TRUE(eager.SaveBinaryFile(path).ok());
  auto mapped = RatingDataset::LoadFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // ~4KiB of resident rows per window: many windows per epoch.
  mapped->set_train_budget_bytes(4096);

  auto resident_models = MakeModels();
  auto mapped_models = MakeModels();
  for (size_t m = 0; m < resident_models.size(); ++m) {
    const std::string want =
        FitAndSerialize(*resident_models[m], eager, nullptr);
    const std::string got = FitAndSerialize(*mapped_models[m], *mapped,
                                            nullptr);
    EXPECT_EQ(want, got)
        << resident_models[m]->name() << ": out-of-core fit diverged";
  }
  // Satellite check: no trainer materialized the full matrix — the CSC
  // index and ratings() order were never built on the mapped dataset.
  EXPECT_TRUE(mapped->IsMapped());
  EXPECT_FALSE(mapped->ResidencyMaterialized());

  // Top-N parity on the mapped dataset (scoring reads rows only).
  for (size_t m = 0; m < resident_models.size(); ++m) {
    EXPECT_EQ(RecommendAllUsers(*resident_models[m], eager, 10),
              RecommendAllUsers(*mapped_models[m], *mapped, 10))
        << resident_models[m]->name();
  }
  EXPECT_FALSE(mapped->ResidencyMaterialized());
  std::remove(path.c_str());
}

TEST(TrainOutOfCoreParityTest, FitIsBudgetInvariant) {
  const RatingDataset eager = MakeData();
  const std::string path = TestPath("train_budget_invariance.gdc");
  ASSERT_TRUE(eager.SaveBinaryFile(path).ok());

  // Reference: unbounded budget (one window).
  auto reference_models = MakeModels();
  std::vector<std::string> reference;
  for (auto& model : reference_models) {
    reference.push_back(FitAndSerialize(*model, eager, nullptr));
  }
  for (const int64_t budget : {int64_t{512}, int64_t{1} << 14}) {
    auto mapped = RatingDataset::LoadFile(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    mapped->set_train_budget_bytes(budget);
    auto models = MakeModels();
    for (size_t m = 0; m < models.size(); ++m) {
      EXPECT_EQ(reference[m], FitAndSerialize(*models[m], *mapped, nullptr))
          << models[m]->name() << ": budget " << budget << " diverged";
    }
  }
  std::remove(path.c_str());
}

TEST(TrainOutOfCoreParityTest, FitIsThreadCountInvariant) {
  const RatingDataset train = MakeData();

  auto serial_models = MakeModels();
  std::vector<std::string> serial;
  for (auto& model : serial_models) {
    serial.push_back(FitAndSerialize(*model, train, nullptr));
  }
  for (const size_t threads : {size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    auto models = MakeModels();
    for (size_t m = 0; m < models.size(); ++m) {
      EXPECT_EQ(serial[m], FitAndSerialize(*models[m], train, &pool))
          << models[m]->name() << ": " << threads << " threads diverged";
    }
  }
}

}  // namespace
}  // namespace ganc
