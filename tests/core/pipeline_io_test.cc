// GancPipeline artifact round trip: save -> load must reproduce theta,
// long-tail statistics, the embedded base model, and — end to end —
// a bit-identical RecommendAll collection, against the same train set.

#include "core/pipeline.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "util/serialize.h"

namespace ganc {
namespace {

RatingDataset MakeData(int32_t num_users = 60, int32_t num_items = 100,
                       uint64_t seed = 0) {
  SyntheticSpec spec = TinySpec();
  spec.num_users = num_users;
  spec.num_items = num_items;
  spec.mean_activity = 14.0;
  if (seed != 0) spec.seed = seed;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

std::unique_ptr<GancPipeline> MakePipeline(const RatingDataset& train) {
  PipelineConfig config;
  config.theta_model = PreferenceModel::kGeneralized;
  config.coverage = CoverageKind::kDyn;
  config.top_n = 5;
  config.sample_size = 30;
  config.seed = 77;
  auto pipeline = GancPipeline::Create(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 6}), train,
      config);
  EXPECT_TRUE(pipeline.ok());
  return std::move(pipeline).value();
}

std::string Serialize(const GancPipeline& pipeline) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(pipeline.Save(os).ok());
  return os.str();
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Rewrites the dataset cache at `path` with the item id of its last
/// rating set out of range, re-checksumming the rows section so the
/// mapped loader accepts the file and only row validation catches it.
std::string CorruptLastRow(const std::string& path, const std::string& name) {
  std::string bytes = ReadBytes(path);
  std::istringstream is(bytes, std::ios::binary);
  auto r = ArtifactReader::OpenStream(is);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r->ReadSectionExpect(1).ok());
  EXPECT_TRUE(r->ReadSectionExpect(2).ok());
  auto rows = r->ReadSectionExpect(6);
  EXPECT_TRUE(rows.ok());
  const size_t size = rows->payload.size();
  const size_t off = bytes.find(rows->payload);
  EXPECT_NE(off, std::string::npos);
  // Payload: u64 count, then (i32 item, f32 value) entries.
  bytes[off + size - 8 + 3] = static_cast<char>(0x7F);
  const uint64_t checksum = Fnv1aHash(bytes.data() + off, size);
  for (int i = 0; i < 8; ++i) {
    bytes[off + size + static_cast<size_t>(i)] =
        static_cast<char>(checksum >> (8 * i));
  }
  const std::string bad_path = TestPath(name);
  WriteBytes(bad_path, bytes);
  return bad_path;
}

/// Rewrites the pipeline artifact `bytes` with its first theta entry set
/// to `theta0`, re-sealing the theta section checksum so only the range
/// check can catch it.
std::string PatchFirstTheta(std::string bytes, double theta0) {
  std::istringstream is(bytes, std::ios::binary);
  auto r = ArtifactReader::OpenStream(is);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r->ReadSectionExpect(1).ok());
  auto theta = r->ReadSectionExpect(2);
  EXPECT_TRUE(theta.ok());
  const size_t off =
      static_cast<size_t>(theta->payload.data() - r->bytes()->view().data());
  const size_t size = theta->payload.size();
  // Payload: u64 count, then the f64 entries.
  std::memcpy(bytes.data() + off + 8, &theta0, sizeof(theta0));
  const uint64_t checksum = Fnv1aHash(bytes.data() + off, size);
  for (int i = 0; i < 8; ++i) {
    bytes[off + size + static_cast<size_t>(i)] =
        static_cast<char>(checksum >> (8 * i));
  }
  return bytes;
}

TEST(PipelineIoTest, RoundTripReproducesRecommendAllExactly) {
  const RatingDataset train = MakeData();
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  std::istringstream is(Serialize(*pipeline), std::ios::binary);
  Result<std::unique_ptr<GancPipeline>> loaded = GancPipeline::Load(is, train);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->name(), pipeline->name());
  EXPECT_EQ((*loaded)->theta(), pipeline->theta());
  EXPECT_EQ((*loaded)->base().name(), pipeline->base().name());
  EXPECT_EQ((*loaded)->tail().tail_size, pipeline->tail().tail_size);
  EXPECT_EQ((*loaded)->tail().is_long_tail, pipeline->tail().is_long_tail);

  auto topn_a = pipeline->RecommendAll();
  auto topn_b = (*loaded)->RecommendAll();
  ASSERT_TRUE(topn_a.ok());
  ASSERT_TRUE(topn_b.ok());
  EXPECT_EQ(*topn_a, *topn_b);
  for (UserId u = 0; u < 5; ++u) {
    EXPECT_EQ(pipeline->RecommendForUser(u), (*loaded)->RecommendForUser(u));
  }
}

TEST(PipelineIoTest, IndicatorAccuracyConfigSurvives) {
  const RatingDataset train = MakeData();
  PipelineConfig config;
  config.indicator_accuracy = true;
  config.top_n = 5;
  config.sample_size = 20;
  auto pipeline = GancPipeline::Create(std::make_unique<PopRecommender>(),
                                       train, config);
  ASSERT_TRUE(pipeline.ok());
  std::istringstream is(Serialize(**pipeline), std::ios::binary);
  Result<std::unique_ptr<GancPipeline>> loaded = GancPipeline::Load(is, train);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto topn_a = (*pipeline)->RecommendAll();
  auto topn_b = (*loaded)->RecommendAll();
  ASSERT_TRUE(topn_a.ok());
  ASSERT_TRUE(topn_b.ok());
  EXPECT_EQ(*topn_a, *topn_b);
}

TEST(PipelineIoTest, FileRoundTrip) {
  const RatingDataset train = MakeData();
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  const std::string path = ::testing::TempDir() + "/ganc_pipeline_io.gap";
  ASSERT_TRUE(pipeline->SaveFile(path).ok());
  Result<std::unique_ptr<GancPipeline>> loaded =
      GancPipeline::LoadFile(path, train);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->theta(), pipeline->theta());
}

TEST(PipelineIoTest, MismatchedTrainRejected) {
  const RatingDataset train = MakeData();
  const RatingDataset other = MakeData(25, 40);
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  std::istringstream is(Serialize(*pipeline), std::ios::binary);
  Result<std::unique_ptr<GancPipeline>> loaded = GancPipeline::Load(is, other);
  EXPECT_FALSE(loaded.ok());
}

TEST(PipelineIoTest, SameDimsDifferentSplitRejected) {
  // Theta and the embedded model are functions of the exact train
  // content; a different split with identical dimensions must be
  // refused via the train fingerprint.
  const RatingDataset train = MakeData();
  const RatingDataset same_dims = MakeData(60, 100, 999);
  ASSERT_EQ(same_dims.num_users(), train.num_users());
  ASSERT_EQ(same_dims.num_items(), train.num_items());
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  std::istringstream is(Serialize(*pipeline), std::ios::binary);
  Result<std::unique_ptr<GancPipeline>> loaded =
      GancPipeline::Load(is, same_dims);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos);
}

TEST(PipelineIoTest, CorruptEmbeddedModelRejected) {
  const RatingDataset train = MakeData();
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  std::string bytes = Serialize(*pipeline);
  // The embedded model artifact is the last section; corrupt its tail.
  bytes[bytes.size() - 30] ^= 0x5A;
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_FALSE(GancPipeline::Load(is, train).ok());
}

TEST(PipelineIoTest, CreateRejectsThetaOutsideUnitInterval) {
  const RatingDataset train = MakeData();
  for (const double constant : {1.5, std::nan("")}) {
    PipelineConfig config;
    config.theta_model = PreferenceModel::kConstant;
    config.constant_theta = constant;
    auto pipeline = GancPipeline::Create(std::make_unique<PopRecommender>(),
                                         train, config);
    ASSERT_FALSE(pipeline.ok()) << constant;
    EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(pipeline.status().message(), "theta entries must lie in [0, 1]");
  }
}

TEST(PipelineIoTest, LoadRejectsThetaOutsideUnitInterval) {
  const RatingDataset train = MakeData();
  const std::string bytes = Serialize(*MakePipeline(train));
  // The patch itself is sound: an in-range value still loads.
  const std::string ok_path = TestPath("pipeline_theta_half.gap");
  WriteBytes(ok_path, PatchFirstTheta(bytes, 0.5));
  EXPECT_TRUE(GancPipeline::LoadFile(ok_path, train).ok());

  const std::string bad_path = TestPath("pipeline_theta_1_5.gap");
  WriteBytes(bad_path, PatchFirstTheta(bytes, 1.5));
  auto loaded = GancPipeline::LoadFile(bad_path, train);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(), "theta entries must lie in [0, 1]");
  std::remove(ok_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(PipelineIoTest, TruncationRejected) {
  const RatingDataset train = MakeData();
  const std::string bytes = Serialize(*MakePipeline(train));
  for (const size_t keep : {size_t{0}, size_t{16}, size_t{64},
                            bytes.size() / 2, bytes.size() - 1}) {
    std::istringstream is(bytes.substr(0, keep), std::ios::binary);
    EXPECT_FALSE(GancPipeline::Load(is, train).ok()) << "kept " << keep;
  }
}

TEST(PipelineIoTest, ThreadedLoadIsByteIdentical) {
  const RatingDataset train = MakeData();
  const std::unique_ptr<GancPipeline> pipeline = MakePipeline(train);
  const std::string bytes = Serialize(*pipeline);
  std::istringstream is(bytes, std::ios::binary);
  Result<std::unique_ptr<GancPipeline>> loaded =
      GancPipeline::Load(is, train, /*num_threads=*/2);
  ASSERT_TRUE(loaded.ok());
  auto topn_a = pipeline->RecommendAll();
  auto topn_b = (*loaded)->RecommendAll();
  ASSERT_TRUE(topn_a.ok());
  ASSERT_TRUE(topn_b.ok());
  EXPECT_EQ(*topn_a, *topn_b);
}

TEST(PipelineIoTest, MappedCacheSavesByteIdenticalArtifact) {
  // Fit, theta^G and the saved tail statistics all run off budgeted row
  // sweeps, so a mapped cache trains the same artifact as the eager
  // dataset without ever materializing the CSC index.
  const RatingDataset eager = MakeData(80, 120, 5);
  const std::string cache = TestPath("pipeline_io_mapped.gdc");
  ASSERT_TRUE(eager.SaveBinaryFile(cache).ok());
  auto mapped = RatingDataset::LoadFile(cache);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  mapped->set_train_budget_bytes(2048);
  const std::unique_ptr<GancPipeline> from_eager = MakePipeline(eager);
  const std::unique_ptr<GancPipeline> from_mapped = MakePipeline(*mapped);
  ASSERT_NE(from_mapped, nullptr);
  EXPECT_FALSE(mapped->ResidencyMaterialized());
  const std::string eager_path = TestPath("pipeline_io_eager.gap");
  const std::string mapped_path = TestPath("pipeline_io_mapped.gap");
  ASSERT_TRUE(from_eager->SaveFile(eager_path).ok());
  ASSERT_TRUE(from_mapped->SaveFile(mapped_path).ok());
  const std::string eager_bytes = ReadBytes(eager_path);
  EXPECT_FALSE(eager_bytes.empty());
  EXPECT_EQ(eager_bytes, ReadBytes(mapped_path));
}

TEST(PipelineIoTest, MappedCacheStatCoverageMatchesEager) {
  // Stat coverage reads popularity from the row sweep, so the mapped
  // pipeline re-ranks identically and stays non-resident.
  const RatingDataset eager = MakeData(70, 110, 6);
  const std::string cache = TestPath("pipeline_io_stat.gdc");
  ASSERT_TRUE(eager.SaveBinaryFile(cache).ok());
  auto mapped = RatingDataset::LoadFile(cache);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  PipelineConfig config;
  config.coverage = CoverageKind::kStat;
  config.seed = 8;
  auto build = [&](const RatingDataset& train) {
    auto pipeline = GancPipeline::Create(
        std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 5}),
        train, config);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    return std::move(pipeline).value();
  };
  const auto from_eager = build(eager);
  const auto from_mapped = build(*mapped);
  auto topn_eager = from_eager->RecommendAll();
  auto topn_mapped = from_mapped->RecommendAll();
  ASSERT_TRUE(topn_eager.ok());
  ASSERT_TRUE(topn_mapped.ok());
  EXPECT_EQ(*topn_eager, *topn_mapped);
  EXPECT_EQ(from_eager->RecommendForUser(3), from_mapped->RecommendForUser(3));
  EXPECT_FALSE(mapped->ResidencyMaterialized());
}

TEST(PipelineIoTest, CorruptMappedRowIsTypedError) {
  // An out-of-range item id in a mapped row must come back from Create
  // as the row sweep's validation error, never as an out-of-bounds
  // index. The base is fitted on the intact data so that theta^G is the
  // first stage to read the corrupt row; the small budget makes the
  // sweep place several valid windows before it reaches the bad one.
  const RatingDataset eager = MakeData(80, 120, 7);
  const std::string cache = TestPath("pipeline_io_intact.gdc");
  ASSERT_TRUE(eager.SaveBinaryFile(cache).ok());
  const std::string bad = CorruptLastRow(cache, "pipeline_io_badrow.gdc");
  auto mapped = RatingDataset::LoadFile(bad);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  mapped->set_train_budget_bytes(2048);

  auto base = std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 4});
  ASSERT_TRUE(base->Fit(eager).ok());
  PipelineConfig config;
  config.fit_base = false;
  auto pipeline = GancPipeline::Create(std::move(base), *mapped, config);
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pipeline.status().ToString().find("out of range"),
            std::string::npos)
      << pipeline.status().ToString();

  // With the base fitted inside Create, the fit's own sweep reports it.
  auto refit = GancPipeline::Create(
      std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 4}),
      *mapped, {});
  EXPECT_FALSE(refit.ok());
}

}  // namespace
}  // namespace ganc
