// Differential test of the artifact loaders: for every artifact kind, a
// file load (a mapping) and an std::istream load of the same bytes (a
// heap buffer) must give equal objects — dimensions, fingerprints,
// ScoreBatchInto bits, store lists, pipeline RecommendAll digests — and
// re-save byte-identically. Both go through the one ArtifactReader, so
// this pins that the backing storage is never observable.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "recommender/bpr.h"
#include "recommender/cofirank.h"
#include "recommender/item_knn.h"
#include "recommender/model_io.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "recommender/random_rec.h"
#include "recommender/random_walk.h"
#include "recommender/rsvd.h"
#include "recommender/user_knn.h"
#include "serve/topn_store.h"
#include "util/binary_io.h"

namespace ganc {
namespace {

std::ifstream OpenBytes(const std::string& path) {
  return std::ifstream(path, std::ios::binary);
}

Result<RatingDataset> LoadDatasetFromFile(const std::string& path) {
  return RatingDataset::LoadFile(path);
}
Result<RatingDataset> LoadDatasetFromStream(const std::string& path) {
  std::ifstream is = OpenBytes(path);
  return RatingDataset::LoadBinary(is);
}
Result<std::unique_ptr<Recommender>> LoadModelFromFile(const std::string& path,
                                                const RatingDataset* train) {
  return LoadModelFile(path, train);
}
Result<std::unique_ptr<Recommender>> LoadModelFromStream(const std::string& path,
                                                const RatingDataset* train) {
  std::ifstream is = OpenBytes(path);
  return LoadModel(is, train);
}
Result<TopNStore> LoadStoreFromFile(const std::string& path) {
  return TopNStore::LoadFile(path);
}
Result<TopNStore> LoadStoreFromStream(const std::string& path) {
  std::ifstream is = OpenBytes(path);
  return TopNStore::Load(is);
}
Result<std::unique_ptr<GancPipeline>> LoadPipelineFromFile(
    const std::string& path, const RatingDataset& train) {
  return GancPipeline::LoadFile(path, train);
}
Result<std::unique_ptr<GancPipeline>> LoadPipelineFromStream(
    const std::string& path, const RatingDataset& train) {
  std::ifstream is = OpenBytes(path);
  return GancPipeline::Load(is, train);
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

template <typename T>
std::string Saved(const T& artifact) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(artifact.Save(os).ok());
  return os.str();
}

RatingDataset MakeData(int32_t users, int32_t items, double activity) {
  SyntheticSpec spec = TinySpec();
  spec.num_users = users;
  spec.num_items = items;
  spec.mean_activity = activity;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

void ExpectSameDataset(const RatingDataset& a, const RatingDataset& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_ratings(), b.num_ratings());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  for (UserId u = 0; u < a.num_users(); ++u) {
    const auto ra = a.ItemsOf(u);
    const auto rb = b.ItemsOf(u);
    ASSERT_EQ(ra.size(), rb.size()) << "user " << u;
    for (size_t k = 0; k < ra.size(); ++k) {
      ASSERT_EQ(ra[k].item, rb[k].item) << "user " << u;
      ASSERT_EQ(std::bit_cast<uint32_t>(ra[k].value),
                std::bit_cast<uint32_t>(rb[k].value))
          << "user " << u;
    }
  }
  ASSERT_TRUE(a.EnsureResident().ok());
  ASSERT_TRUE(b.EnsureResident().ok());
  ASSERT_EQ(a.ratings().size(), b.ratings().size());
  for (size_t i = 0; i < a.ratings().size(); ++i) {
    ASSERT_EQ(a.ratings()[i].user, b.ratings()[i].user) << "rating " << i;
    ASSERT_EQ(a.ratings()[i].item, b.ratings()[i].item) << "rating " << i;
  }
  for (ItemId i = 0; i < a.num_items(); ++i) {
    ASSERT_EQ(a.Popularity(i), b.Popularity(i)) << "item " << i;
  }
}

TEST(ArtifactLoadParityTest, DatasetCache) {
  const RatingDataset original = MakeData(90, 140, 16.0);
  const std::string path = TestPath("parity.gdc");
  ASSERT_TRUE(original.SaveBinaryFile(path).ok());
  auto a = LoadDatasetFromFile(path);
  auto b = LoadDatasetFromStream(path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a->IsMapped());
  EXPECT_FALSE(b->IsMapped());
  ExpectSameDataset(*a, *b);
  ExpectSameDataset(original, *b);
  const std::string bytes = FileBytes(path);
  std::ostringstream resaved_a(std::ios::binary);
  std::ostringstream resaved_b(std::ios::binary);
  ASSERT_TRUE(a->SaveBinary(resaved_a).ok());
  ASSERT_TRUE(b->SaveBinary(resaved_b).ok());
  EXPECT_EQ(resaved_a.str(), bytes);
  EXPECT_EQ(resaved_b.str(), bytes);
  std::remove(path.c_str());
}

// Every model type; the four latent-factor models at every precision.
std::vector<std::unique_ptr<Recommender>> FittedModels(
    const RatingDataset& train) {
  std::vector<std::unique_ptr<Recommender>> models;
  models.push_back(std::make_unique<PopRecommender>());
  models.push_back(std::make_unique<RandomRecommender>(123));
  models.push_back(
      std::make_unique<RandomWalkRecommender>(RandomWalkConfig{.beta = 0.6}));
  models.push_back(
      std::make_unique<ItemKnnRecommender>(ItemKnnConfig{.num_neighbors = 12}));
  models.push_back(
      std::make_unique<UserKnnRecommender>(UserKnnConfig{.num_neighbors = 12}));
  for (const FactorPrecision p :
       {FactorPrecision::kFp64, FactorPrecision::kFp32,
        FactorPrecision::kInt8}) {
    std::vector<std::unique_ptr<Recommender>> factor;
    factor.push_back(
        std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 9}));
    factor.push_back(std::make_unique<RsvdRecommender>(
        RsvdConfig{.num_factors = 7, .num_epochs = 4, .use_biases = true}));
    factor.push_back(std::make_unique<BprRecommender>(
        BprConfig{.num_factors = 6, .num_epochs = 4}));
    factor.push_back(std::make_unique<CofiRecommender>(
        CofiConfig{.num_factors = 6, .num_epochs = 4}));
    for (auto& m : factor) {
      EXPECT_TRUE(m->Fit(train).ok()) << m->name();
      EXPECT_TRUE(m->SetFactorPrecision(p).ok()) << m->name();
      models.push_back(std::move(m));
    }
  }
  for (size_t k = 0; k < 5; ++k) {
    EXPECT_TRUE(models[k]->Fit(train).ok()) << models[k]->name();
  }
  return models;
}

std::vector<double> BatchScores(const Recommender& model,
                                const RatingDataset& train) {
  std::vector<UserId> users(static_cast<size_t>(train.num_users()));
  for (size_t u = 0; u < users.size(); ++u) {
    users[u] = static_cast<UserId>(u);
  }
  std::vector<double> out(users.size() *
                          static_cast<size_t>(model.num_items()));
  model.ScoreBatchInto(users, out);
  return out;
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << ": score " << i << " differs";
  }
}

TEST(ArtifactLoadParityTest, EveryModelTypeAndPrecision) {
  const RatingDataset train = MakeData(80, 150, 18.0);
  int index = 0;
  for (const auto& fitted : FittedModels(train)) {
    const std::string what =
        fitted->name() + "/" + FactorPrecisionName(fitted->factor_precision());
    const std::string path =
        TestPath("parity_model_" + std::to_string(index++) + ".gam");
    ASSERT_TRUE(SaveModelFile(*fitted, path).ok()) << what;
    auto a = LoadModelFromFile(path, &train);
    auto b = LoadModelFromStream(path, &train);
    ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
    EXPECT_EQ((*a)->name(), (*b)->name()) << what;
    EXPECT_EQ((*a)->num_items(), (*b)->num_items()) << what;
    EXPECT_EQ((*a)->factor_precision(), (*b)->factor_precision()) << what;
    const std::vector<double> scores = BatchScores(*fitted, train);
    ExpectBitIdentical(scores, BatchScores(**a, train), what);
    ExpectBitIdentical(scores, BatchScores(**b, train), what);
    const std::string bytes = FileBytes(path);
    EXPECT_EQ(Saved(**a), bytes) << what;
    EXPECT_EQ(Saved(**b), bytes) << what;
    std::remove(path.c_str());
  }
  EXPECT_EQ(index, 17);
}

TEST(ArtifactLoadParityTest, TopNStore) {
  std::vector<std::pair<UserId, std::vector<ItemId>>> lists;
  for (UserId u = 0; u < 60; u += 2) {
    std::vector<ItemId> items;
    for (int32_t k = 0; k < (u % 9) + 1; ++k) {
      items.push_back((u * 17 + k * 7) % 110);
    }
    lists.emplace_back(u, std::move(items));
  }
  auto original = TopNStore::FromLists(60, 110, 10, 0x1234, "psvd10", lists);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  const std::string path = TestPath("parity.gts");
  ASSERT_TRUE(original->SaveFile(path).ok());
  auto a = LoadStoreFromFile(path);
  auto b = LoadStoreFromStream(path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  for (const TopNStore* s : {&*a, &*b}) {
    EXPECT_EQ(s->num_users(), original->num_users());
    EXPECT_EQ(s->num_items(), original->num_items());
    EXPECT_EQ(s->top_n(), original->top_n());
    EXPECT_EQ(s->train_fingerprint(), original->train_fingerprint());
    EXPECT_EQ(s->source(), original->source());
    EXPECT_EQ(s->num_lists(), original->num_lists());
    EXPECT_EQ(s->total_items(), original->total_items());
    for (UserId u = 0; u < s->num_users(); ++u) {
      const auto got = s->ListFor(u);
      const auto want = original->ListFor(u);
      ASSERT_EQ(std::vector<ItemId>(got.begin(), got.end()),
                std::vector<ItemId>(want.begin(), want.end()))
          << "user " << u;
    }
    EXPECT_EQ(Saved(*s), FileBytes(path));
  }
  std::remove(path.c_str());
}

uint64_t Digest(const TopNCollection& topn) {
  Fnv1aHasher h;
  for (const auto& list : topn) {
    const uint64_t n = list.size();
    h.Update(&n, sizeof(n));
    h.Update(list.data(), list.size() * sizeof(ItemId));
  }
  return h.digest();
}

// The pipeline_io_test fixtures: PSVD6 + theta^G + Dyn, and Pop with the
// indicator accuracy scorer, over the same 60 x 100 corpus. Their
// RecommendAll digests are pinned so every load path reproduces the
// same lists as the writer that produced them.
TEST(ArtifactLoadParityTest, PipelineRecommendAllDigestsPinned) {
  const RatingDataset train = MakeData(60, 100, 14.0);
  PipelineConfig dyn;
  dyn.theta_model = PreferenceModel::kGeneralized;
  dyn.coverage = CoverageKind::kDyn;
  dyn.top_n = 5;
  dyn.sample_size = 30;
  dyn.seed = 77;
  PipelineConfig indicator;
  indicator.indicator_accuracy = true;
  indicator.top_n = 5;
  indicator.sample_size = 20;
  struct Fixture {
    const char* name;
    std::unique_ptr<Recommender> base;
    PipelineConfig config;
    uint64_t digest;
  };
  Fixture fixtures[] = {
      {"psvd_dyn",
       std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 6}), dyn,
       0x773f0e5142362f4aULL},
      {"pop_indicator", std::make_unique<PopRecommender>(), indicator,
       0x4f1bdc6c3b4d1137ULL},
  };
  for (Fixture& f : fixtures) {
    auto pipeline = GancPipeline::Create(std::move(f.base), train, f.config);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    auto written = (*pipeline)->RecommendAll();
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(Digest(*written), f.digest) << f.name;
    const std::string path = TestPath(std::string("parity_") + f.name + ".gap");
    ASSERT_TRUE((*pipeline)->SaveFile(path).ok());
    auto a = LoadPipelineFromFile(path, train);
    auto b = LoadPipelineFromStream(path, train);
    ASSERT_TRUE(a.ok()) << f.name << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << f.name << ": " << b.status().ToString();
    auto topn_a = (*a)->RecommendAll();
    auto topn_b = (*b)->RecommendAll();
    ASSERT_TRUE(topn_a.ok());
    ASSERT_TRUE(topn_b.ok());
    EXPECT_EQ(Digest(*topn_a), Digest(*written)) << f.name;
    EXPECT_EQ(Digest(*topn_b), Digest(*written)) << f.name;
    EXPECT_EQ(Saved(**a), FileBytes(path)) << f.name;
    EXPECT_EQ(Saved(**b), FileBytes(path)) << f.name;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace ganc
