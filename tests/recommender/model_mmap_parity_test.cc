// Mapped model loads: for every recommender, LoadModelFile must
// reproduce the stream loader's scores bit-for-bit and its top-N lists
// exactly — zero-copy factor borrowing is an optimization, never an
// observable behavior change. A mapped model must survive its file
// being re-saved in place: saves write a new file and rename it.

#include "recommender/model_io.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/bpr.h"
#include "recommender/cofirank.h"
#include "recommender/item_knn.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "recommender/random_rec.h"
#include "recommender/random_walk.h"
#include "recommender/rsvd.h"
#include "recommender/scoring_context.h"
#include "recommender/user_knn.h"

namespace ganc {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

RatingDataset MakeData() {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 80;
  spec.num_items = 150;
  spec.mean_activity = 18.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

std::vector<std::unique_ptr<Recommender>> AllFittedModels(
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
  models.push_back(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 9}));
  models.push_back(std::make_unique<RsvdRecommender>(
      RsvdConfig{.num_factors = 7, .num_epochs = 4, .use_biases = true}));
  models.push_back(std::make_unique<BprRecommender>(
      BprConfig{.num_factors = 6, .num_epochs = 4}));
  models.push_back(std::make_unique<CofiRecommender>(
      CofiConfig{.num_factors = 6, .num_epochs = 4}));
  for (auto& m : models) {
    EXPECT_TRUE(m->Fit(train).ok()) << m->name();
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
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << ": score " << i << " differs";
  }
}

TEST(ModelMmapParityTest, AllModelsScoreBitIdenticallyMappedVsStream) {
  const RatingDataset train = MakeData();
  for (auto& fitted : AllFittedModels(train)) {
    const std::string path =
        TestPath(std::string("mmap_parity_") + fitted->name() + ".gam");
    ASSERT_TRUE(SaveModelFile(*fitted, path).ok()) << fitted->name();

    std::ifstream is(path, std::ios::binary);
    auto streamed = LoadModel(is, &train);
    ASSERT_TRUE(streamed.ok())
        << fitted->name() << ": " << streamed.status().ToString();
    auto mapped = LoadModelFile(path, &train);
    ASSERT_TRUE(mapped.ok())
        << fitted->name() << ": " << mapped.status().ToString();

    EXPECT_EQ((*mapped)->name(), fitted->name());
    ExpectBitIdentical(BatchScores(**streamed, train),
                       BatchScores(**mapped, train), fitted->name().c_str());
    ExpectBitIdentical(BatchScores(*fitted, train),
                       BatchScores(**mapped, train), fitted->name().c_str());
    EXPECT_EQ(RecommendAllUsers(**streamed, train, 10),
              RecommendAllUsers(**mapped, train, 10))
        << fitted->name();
    std::remove(path.c_str());
  }
}

TEST(ModelMmapParityTest, HeldModelSurvivesAnInPlaceResave) {
  // A served model keeps its file mapped. Re-saving a different (and
  // smaller) model to the same path must neither change what the held
  // model scores nor crash it; a fresh load sees the new model.
  const RatingDataset train = MakeData();
  PsvdRecommender big(PsvdConfig{.num_factors = 12});
  PsvdRecommender small(PsvdConfig{.num_factors = 2});
  ASSERT_TRUE(big.Fit(train).ok());
  ASSERT_TRUE(small.Fit(train).ok());
  const std::string path = TestPath("mmap_resave.gam");
  ASSERT_TRUE(SaveModelFile(big, path).ok());
  auto held = LoadModelFile(path, &train);
  ASSERT_TRUE(held.ok()) << held.status().ToString();

  ASSERT_TRUE(SaveModelFile(small, path).ok());
  ExpectBitIdentical(BatchScores(big, train), BatchScores(**held, train),
                     "held model after re-save");
  auto fresh = LoadModelFile(path, &train);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectBitIdentical(BatchScores(small, train), BatchScores(**fresh, train),
                     "fresh load after re-save");
  std::remove(path.c_str());
}

TEST(ModelMmapParityTest, MappedLoadRejectsCorruptArtifact) {
  const RatingDataset train = MakeData();
  PsvdRecommender model(PsvdConfig{.num_factors = 3});
  ASSERT_TRUE(model.Fit(train).ok());
  const std::string path = TestPath("mmap_corrupt_model.gam");
  ASSERT_TRUE(SaveModelFile(model, path).ok());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  // Flip one byte somewhere in the middle of the payload region.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x5A;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  EXPECT_FALSE(LoadModelFile(path, &train).ok());

  // Truncations through the mapped loader are typed errors too.
  for (const size_t keep :
       {size_t{0}, size_t{10}, bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(keep));
    os.close();
    EXPECT_FALSE(LoadModelFile(path, &train).ok()) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(ModelMmapParityTest, MappedLoadRequiresDatasetBindingToo) {
  // The mapped path must enforce the same binding contract as the
  // stream path: dataset-backed models refuse to load without a train
  // set and refuse a fingerprint-mismatched one.
  const RatingDataset train = MakeData();
  ItemKnnRecommender knn(ItemKnnConfig{.num_neighbors = 8});
  ASSERT_TRUE(knn.Fit(train).ok());
  const std::string path = TestPath("mmap_binding.gam");
  ASSERT_TRUE(SaveModelFile(knn, path).ok());
  EXPECT_EQ(LoadModelFile(path, nullptr).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(LoadModelFile(path, &train).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ganc
