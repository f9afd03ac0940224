// Parity tiers and persistence for the compact factor tables
// (factor_store.h): fp64 is the exact reference, fp32 must track it
// within float rounding, int8 must preserve the top-10 ranking
// (mean overlap@10 >= 0.95), and every precision must survive a
// save -> cold-load round trip bit-for-bit — including rejection of
// corrupted factor-table sections.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/bpr.h"
#include "recommender/cofirank.h"
#include "recommender/factor_store.h"
#include "recommender/factor_view.h"
#include "recommender/model_io.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "recommender/recommender.h"
#include "recommender/rsvd.h"
#include "serve/recommendation_service.h"
#include "util/serialize.h"

namespace ganc {
namespace {

RatingDataset MakeData() {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 120;
  spec.num_items = 220;
  spec.mean_activity = 22.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

/// The four latent-factor models, freshly constructed (fits are
/// deterministic, so two instances of the same config score
/// identically — the reference/compacted pairs below rely on that).
std::vector<std::unique_ptr<Recommender>> FactorModels() {
  std::vector<std::unique_ptr<Recommender>> models;
  models.push_back(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 8}));
  models.push_back(std::make_unique<RsvdRecommender>(
      RsvdConfig{.num_factors = 8, .num_epochs = 4, .use_biases = true}));
  models.push_back(std::make_unique<BprRecommender>(
      BprConfig{.num_factors = 8, .num_epochs = 4}));
  models.push_back(std::make_unique<CofiRecommender>(
      CofiConfig{.num_factors = 8, .num_epochs = 4}));
  return models;
}

/// Top-k item indices by score, ties broken toward the lower id (any
/// deterministic tie-break works — both sides of an overlap comparison
/// use this one).
std::vector<ItemId> TopKItems(const std::vector<double>& scores, size_t k) {
  std::vector<ItemId> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](ItemId a, ItemId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

double OverlapAtK(const std::vector<ItemId>& a, const std::vector<ItemId>& b) {
  size_t hits = 0;
  for (const ItemId i : a) {
    if (std::find(b.begin(), b.end(), i) != b.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(a.size());
}

// ---------------------------------------------------------------------
// FactorStore unit tier: conversions, resident bytes, payload parsing.
// ---------------------------------------------------------------------

// Loads a factor-table payload the way a model Load does: as the
// borrowed section of a one-section artifact, here buffered from a
// stream (so the store's tables point into that buffer).
Status LoadPayload(const std::string& payload, FactorStore* store) {
  PayloadWriter section;
  section.WriteBytes(payload.data(), payload.size());
  std::ostringstream os(std::ios::binary);
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kModel, 0));
  GANC_RETURN_NOT_OK(w.WriteSection(kFactorTableSection, section));
  GANC_RETURN_NOT_OK(w.Finish());
  std::istringstream is(os.str(), std::ios::binary);
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  if (!r.ok()) return r.status();
  Result<ArtifactReader::Section> sec =
      r->BorrowSectionExpect(kFactorTableSection);
  if (!sec.ok()) return sec.status();
  return store->Load(*r, *sec);
}

FactorStore MakeStore(size_t user_rows, size_t item_rows, size_t g) {
  std::vector<double> p(user_rows * g);
  std::vector<double> q(item_rows * g);
  uint64_t state = 0x853c49e6748fea9bULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (static_cast<double>((state >> 16) & 0xFFFF) / 65536.0 - 0.5) * 3.0;
  };
  for (double& v : p) v = next();
  for (double& v : q) v = next();
  FactorStore store;
  store.AdoptFp64(std::move(p), std::move(q), user_rows, item_rows, g);
  return store;
}

TEST(FactorStoreTest, ConversionsOnlyRunOffFp64) {
  FactorStore store = MakeStore(5, 9, 16);
  ASSERT_TRUE(store.SetPrecision(FactorPrecision::kFp32).ok());
  // Identity conversion stays fine; crossing compacted precisions is the
  // lossy-on-lossy path and must fail.
  EXPECT_TRUE(store.SetPrecision(FactorPrecision::kFp32).ok());
  const Status cross = store.SetPrecision(FactorPrecision::kInt8);
  ASSERT_FALSE(cross.ok());
  EXPECT_NE(cross.message().find("already compacted to fp32"),
            std::string::npos);
  const Status back = store.SetPrecision(FactorPrecision::kFp64);
  ASSERT_FALSE(back.ok());

  FactorStore unfitted;
  const Status empty = unfitted.SetPrecision(FactorPrecision::kInt8);
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.message().find("unfitted"), std::string::npos);
}

TEST(FactorStoreTest, ModelsWithoutFactorTablesRejectCompaction) {
  PopRecommender pop;
  EXPECT_TRUE(pop.SetFactorPrecision(FactorPrecision::kFp64).ok());
  const Status s = pop.SetFactorPrecision(FactorPrecision::kInt8);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("has no latent factor tables"),
            std::string::npos);
  EXPECT_EQ(pop.factor_precision(), FactorPrecision::kFp64);
}

TEST(FactorStoreTest, ResidentBytesShrinkFourFoldAtInt8) {
  const size_t rows_u = 40;
  const size_t rows_i = 70;
  const size_t g = 16;
  FactorStore fp64 = MakeStore(rows_u, rows_i, g);
  FactorStore fp32 = MakeStore(rows_u, rows_i, g);
  FactorStore int8 = MakeStore(rows_u, rows_i, g);
  ASSERT_TRUE(fp32.SetPrecision(FactorPrecision::kFp32).ok());
  ASSERT_TRUE(int8.SetPrecision(FactorPrecision::kInt8).ok());
  EXPECT_EQ(fp64.ResidentBytes(), (rows_u + rows_i) * g * sizeof(double));
  EXPECT_EQ(fp32.ResidentBytes() * 2, fp64.ResidentBytes());
  // The acceptance bar: int8 tables (codes + scale/center/qsum side
  // tables) at least 4x smaller than the fp64 originals at g = 16.
  EXPECT_GE(fp64.ResidentBytes(), 4 * int8.ResidentBytes());
}

TEST(FactorStoreTest, PayloadRoundTripsEveryPrecision) {
  for (const FactorPrecision precision :
       {FactorPrecision::kFp64, FactorPrecision::kFp32,
        FactorPrecision::kInt8}) {
    FactorStore store = MakeStore(7, 11, 5);
    ASSERT_TRUE(store.SetPrecision(precision).ok());
    PayloadWriter w;
    store.Save(&w);
    FactorStore loaded;
    ASSERT_TRUE(LoadPayload(w.buffer(), &loaded).ok())
        << FactorPrecisionName(precision);
    EXPECT_EQ(loaded.precision(), precision);
    EXPECT_EQ(loaded.num_factors(), store.num_factors());
    EXPECT_EQ(loaded.user_rows(), store.user_rows());
    EXPECT_EQ(loaded.item_rows(), store.item_rows());
    EXPECT_EQ(loaded.ResidentBytes(), store.ResidentBytes());
  }
}

TEST(FactorStoreTest, LoadRejectsUnknownPrecisionTag) {
  FactorStore store = MakeStore(3, 4, 2);
  PayloadWriter w;
  store.Save(&w);
  std::string corrupted = w.buffer();
  corrupted[0] = static_cast<char>(9);  // no such precision
  FactorStore loaded;
  const Status s = LoadPayload(corrupted, &loaded);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown precision tag 9"), std::string::npos);
}

TEST(FactorStoreTest, LoadRejectsTruncatedQuantizedSection) {
  FactorStore store = MakeStore(6, 8, 4);
  ASSERT_TRUE(store.SetPrecision(FactorPrecision::kInt8).ok());
  PayloadWriter w;
  store.Save(&w);
  const std::string full = w.buffer();
  const std::string truncated = full.substr(0, full.size() / 2);
  FactorStore loaded;
  EXPECT_FALSE(LoadPayload(truncated, &loaded).ok());
}

TEST(FactorStoreTest, LoadRejectsShortQuantizationSideTable) {
  // Hand-crafted int8 payload whose user scale table is one row short:
  // the header says 4 user rows, the scale vector carries 3 entries.
  const size_t g = 3;
  const size_t user_rows = 4;
  const size_t item_rows = 2;
  PayloadWriter w;
  w.WriteU8(static_cast<uint8_t>(FactorPrecision::kInt8));
  w.WriteU64(g);
  w.WriteU64(user_rows);
  w.WriteU64(item_rows);
  w.AlignTo(8);
  w.WriteVecI8(std::vector<int8_t>(user_rows * g, 1));
  w.AlignTo(8);
  w.WriteVecF32(std::vector<float>(user_rows - 1, 0.5f));  // short scale
  w.AlignTo(8);
  w.WriteVecF32(std::vector<float>(user_rows, 0.0f));
  w.AlignTo(8);
  w.WriteVecI32(std::vector<int32_t>(user_rows, 3));
  w.AlignTo(8);
  w.WriteVecI8(std::vector<int8_t>(item_rows * g, 1));
  w.AlignTo(8);
  w.WriteVecF32(std::vector<float>(item_rows, 0.5f));
  w.AlignTo(8);
  w.WriteVecF32(std::vector<float>(item_rows, 0.0f));
  w.AlignTo(8);
  w.WriteVecI32(std::vector<int32_t>(item_rows, 3));
  FactorStore loaded;
  const Status s = LoadPayload(w.buffer(), &loaded);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(
                "user quantization side tables (scale/center/qsum) have "
                "wrong length"),
            std::string::npos);
}

TEST(FactorStoreTest, LoadRejectsWrongCodeTableLength) {
  const size_t g = 3;
  PayloadWriter w;
  w.WriteU8(static_cast<uint8_t>(FactorPrecision::kInt8));
  w.WriteU64(g);
  w.WriteU64(2);  // user rows
  w.WriteU64(2);  // item rows
  w.AlignTo(8);
  w.WriteVecI8(std::vector<int8_t>(2 * g + 1, 1));  // one code too many
  w.AlignTo(8);
  w.WriteVecF32(std::vector<float>(2, 0.5f));
  w.AlignTo(8);
  w.WriteVecF32(std::vector<float>(2, 0.0f));
  w.AlignTo(8);
  w.WriteVecI32(std::vector<int32_t>(2, 3));
  FactorStore loaded;
  const Status s = LoadPayload(w.buffer(), &loaded);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("user int8 code table has wrong length"),
            std::string::npos);
}

TEST(FactorStoreTest, LoadRejectsEmptyDimensions) {
  PayloadWriter w;
  w.WriteU8(static_cast<uint8_t>(FactorPrecision::kFp64));
  w.WriteU64(0);  // g = 0
  w.WriteU64(2);
  w.WriteU64(2);
  FactorStore loaded;
  const Status s = LoadPayload(w.buffer(), &loaded);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("empty dimensions"), std::string::npos);
}

// ---------------------------------------------------------------------
// Model parity tiers: fp32 epsilon, int8 top-N overlap.
// ---------------------------------------------------------------------

TEST(FactorPrecisionTest, Fp32TracksFp64WithinFloatRounding) {
  const RatingDataset train = MakeData();
  const size_t ni = static_cast<size_t>(train.num_items());
  auto references = FactorModels();
  auto compacted = FactorModels();
  for (size_t m = 0; m < references.size(); ++m) {
    ASSERT_TRUE(references[m]->Fit(train).ok());
    ASSERT_TRUE(compacted[m]->Fit(train).ok());
    ASSERT_TRUE(
        compacted[m]->SetFactorPrecision(FactorPrecision::kFp32).ok());
    EXPECT_EQ(compacted[m]->factor_precision(), FactorPrecision::kFp32);
    std::vector<double> exact(ni);
    std::vector<double> narrow(ni);
    for (UserId u = 0; u < train.num_users(); u += 17) {
      references[m]->ScoreInto(u, exact);
      compacted[m]->ScoreInto(u, narrow);
      for (size_t i = 0; i < ni; ++i) {
        const double tol = 1e-4 * std::max(1.0, std::abs(exact[i]));
        ASSERT_NEAR(exact[i], narrow[i], tol)
            << references[m]->name() << " user " << u << " item " << i;
      }
    }
  }
}

TEST(FactorPrecisionTest, Int8PreservesTopTenOverlap) {
  const RatingDataset train = MakeData();
  const size_t ni = static_cast<size_t>(train.num_items());
  auto references = FactorModels();
  auto compacted = FactorModels();
  for (size_t m = 0; m < references.size(); ++m) {
    ASSERT_TRUE(references[m]->Fit(train).ok());
    ASSERT_TRUE(compacted[m]->Fit(train).ok());
    ASSERT_TRUE(
        compacted[m]->SetFactorPrecision(FactorPrecision::kInt8).ok());
    std::vector<double> exact(ni);
    std::vector<double> quant(ni);
    double overlap_sum = 0.0;
    for (UserId u = 0; u < train.num_users(); ++u) {
      references[m]->ScoreInto(u, exact);
      compacted[m]->ScoreInto(u, quant);
      overlap_sum += OverlapAtK(TopKItems(exact, 10), TopKItems(quant, 10));
    }
    const double mean_overlap =
        overlap_sum / static_cast<double>(train.num_users());
    // The int8 acceptance tier: quantization may reorder near-ties but
    // must keep >= 95% of every user's top-10 on average.
    EXPECT_GE(mean_overlap, 0.95) << references[m]->name();
  }
}

// ---------------------------------------------------------------------
// Artifact round trips: save -> cold-load at every precision.
// ---------------------------------------------------------------------

TEST(FactorPrecisionTest, ArtifactRoundTripsBitIdenticalPerPrecision) {
  const RatingDataset train = MakeData();
  const size_t ni = static_cast<size_t>(train.num_items());
  for (const FactorPrecision precision :
       {FactorPrecision::kFp64, FactorPrecision::kFp32,
        FactorPrecision::kInt8}) {
    auto models = FactorModels();
    for (auto& model : models) {
      ASSERT_TRUE(model->Fit(train).ok());
      ASSERT_TRUE(model->SetFactorPrecision(precision).ok());
      std::stringstream ss;
      ASSERT_TRUE(model->Save(ss).ok()) << model->name();
      auto loaded = LoadModel(ss, &train);
      ASSERT_TRUE(loaded.ok()) << model->name() << ": "
                               << loaded.status().message();
      EXPECT_EQ((*loaded)->factor_precision(), precision) << model->name();
      EXPECT_EQ((*loaded)->name(), model->name());
      std::vector<double> before(ni);
      std::vector<double> after(ni);
      for (UserId u = 0; u < train.num_users(); u += 23) {
        model->ScoreInto(u, before);
        (*loaded)->ScoreInto(u, after);
        for (size_t i = 0; i < ni; ++i) {
          ASSERT_EQ(before[i], after[i])
              << model->name() << " precision "
              << FactorPrecisionName(precision) << " user " << u << " item "
              << i;
        }
      }
    }
  }
}

TEST(FactorPrecisionTest, QuantizedArtifactRejectsCorruptedFactorSection) {
  const RatingDataset train = MakeData();
  PsvdRecommender model(PsvdConfig{.num_factors = 8});
  ASSERT_TRUE(model.Fit(train).ok());
  ASSERT_TRUE(model.SetFactorPrecision(FactorPrecision::kInt8).ok());
  std::stringstream ss;
  ASSERT_TRUE(model.Save(ss).ok());
  // Lop off the tail: the artifact layer must refuse the truncated file
  // before any factor bytes reach the store.
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() - 64));
  EXPECT_FALSE(LoadModel(truncated, &train).ok());
}

// ---------------------------------------------------------------------
// Serving: quantized artifacts cold-load straight into a service.
// ---------------------------------------------------------------------

TEST(FactorPrecisionTest, ServeColdLoadsQuantizedArtifact) {
  const RatingDataset train = MakeData();
  PsvdRecommender model(PsvdConfig{.num_factors = 8});
  ASSERT_TRUE(model.Fit(train).ok());
  ASSERT_TRUE(model.SetFactorPrecision(FactorPrecision::kInt8).ok());

  auto borrowed = RecommendationService::Create(model, train, {});
  ASSERT_TRUE(borrowed.ok());
  EXPECT_EQ((*borrowed)->factor_precision(), FactorPrecision::kInt8);

  const std::string path = ::testing::TempDir() + "/ganc_precision_serve.gam";
  ASSERT_TRUE(SaveModelFile(model, path).ok());
  auto loaded = RecommendationService::LoadModelService(path, train, {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->factor_precision(), FactorPrecision::kInt8);

  for (const UserId u : {0, 7, 63, 119}) {
    const auto a = (*borrowed)->TopN(u, 10);
    const auto b = (*loaded)->TopN(u, 10);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "user " << u;
  }
}

TEST(FactorPrecisionTest, ServiceConfigCompactsOwnedSnapshotOnLoad) {
  const RatingDataset train = MakeData();
  // Reference: the same deterministic fit compacted in-process.
  PsvdRecommender reference(PsvdConfig{.num_factors = 8});
  ASSERT_TRUE(reference.Fit(train).ok());
  ASSERT_TRUE(reference.SetFactorPrecision(FactorPrecision::kInt8).ok());
  auto expected = RecommendationService::Create(reference, train, {});
  ASSERT_TRUE(expected.ok());

  // An fp64 artifact loaded with config.factor_precision = int8 must
  // quantize the owned snapshot to the same tables.
  PsvdRecommender fp64_model(PsvdConfig{.num_factors = 8});
  ASSERT_TRUE(fp64_model.Fit(train).ok());
  const std::string path = ::testing::TempDir() + "/ganc_precision_fp64.gam";
  ASSERT_TRUE(SaveModelFile(fp64_model, path).ok());
  ServiceConfig config;
  config.factor_precision = FactorPrecision::kInt8;
  auto service = RecommendationService::LoadModelService(path, train, config);
  ASSERT_TRUE(service.ok()) << service.status().message();
  EXPECT_EQ((*service)->factor_precision(), FactorPrecision::kInt8);

  for (const UserId u : {0, 31, 119}) {
    const auto a = (*expected)->TopN(u, 10);
    const auto b = (*service)->TopN(u, 10);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "user " << u;
  }
}

}  // namespace
}  // namespace ganc
