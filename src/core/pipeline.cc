#include "core/pipeline.h"

#include <sstream>

#include "recommender/model_io.h"
#include "util/serialize.h"

namespace ganc {

namespace {

// Pipeline artifact section ids (kind kPipeline; see docs/FORMATS.md).
constexpr uint32_t kPipelineConfigSection = 1;
constexpr uint32_t kPipelineThetaSection = 2;
constexpr uint32_t kPipelineTailSection = 3;
constexpr uint32_t kPipelineModelSection = 4;

}  // namespace

Result<std::unique_ptr<GancPipeline>> GancPipeline::Create(
    std::unique_ptr<Recommender> base, const RatingDataset& train,
    PipelineConfig config) {
  if (base == nullptr) {
    return Status::InvalidArgument("pipeline needs a base recommender");
  }
  if (config.top_n <= 0) {
    return Status::InvalidArgument("top_n must be positive");
  }
  if (config.num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (1 = serial, 0 = hardware concurrency)");
  }
  std::unique_ptr<ThreadPool> owned_pool = MakeOwnedPool(config);
  if (config.fit_base) {
    ThreadPool* fit_pool =
        config.pool != nullptr ? config.pool : owned_pool.get();
    GANC_RETURN_NOT_OK(base->Fit(train, fit_pool));
  }
  Result<std::vector<double>> theta = ComputePreference(
      config.theta_model, train, config.seed, config.constant_theta);
  if (!theta.ok()) return theta.status();
  return std::unique_ptr<GancPipeline>(new GancPipeline(
      std::move(base), &train, config, std::move(theta).value(),
      ComputeLongTail(train), std::move(owned_pool)));
}

std::unique_ptr<ThreadPool> GancPipeline::MakeOwnedPool(
    const PipelineConfig& c) {
  if (c.pool != nullptr || c.num_threads == 1) return nullptr;
  return std::make_unique<ThreadPool>(
      c.num_threads > 1 ? static_cast<size_t>(c.num_threads) : 0);
}

GancPipeline::GancPipeline(std::unique_ptr<Recommender> base,
                           const RatingDataset* train, PipelineConfig config,
                           std::vector<double> theta, LongTailInfo tail,
                           std::unique_ptr<ThreadPool> owned_pool)
    : base_(std::move(base)),
      train_(train),
      config_(config),
      theta_(std::move(theta)),
      tail_(std::move(tail)),
      owned_pool_(std::move(owned_pool)) {
  if (config_.indicator_accuracy) {
    scorer_ = std::make_unique<TopNIndicatorScorer>(base_.get(), train_,
                                                    config_.top_n);
  } else {
    scorer_ = std::make_unique<NormalizedAccuracyScorer>(base_.get());
  }
  ganc_ = std::make_unique<Ganc>(scorer_.get(), theta_, config_.coverage);
  coverage_ = MakeCoverage(config_.coverage, *train_, config_.seed);
}

Status GancPipeline::Save(std::ostream& os) const {
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kPipeline, 0));

  PayloadWriter config;
  config.WriteU32(static_cast<uint32_t>(config_.theta_model));
  config.WriteU32(static_cast<uint32_t>(config_.coverage));
  config.WriteI32(config_.top_n);
  config.WriteI32(config_.sample_size);
  config.WriteU64(config_.seed);
  config.WriteU8(config_.indicator_accuracy ? 1 : 0);
  config.WriteF64(config_.constant_theta);
  config.WriteU64(train_->Fingerprint());
  GANC_RETURN_NOT_OK(w.WriteSection(kPipelineConfigSection, config));

  PayloadWriter theta;
  theta.WriteVecF64(theta_);
  GANC_RETURN_NOT_OK(w.WriteSection(kPipelineThetaSection, theta));

  PayloadWriter tail;
  tail.WriteI32(tail_.tail_size);
  tail.WriteI32(tail_.num_rated_items);
  tail.WriteF64(tail_.tail_percent);
  tail.WriteU64(tail_.is_long_tail.size());
  for (const bool b : tail_.is_long_tail) tail.WriteU8(b ? 1 : 0);
  GANC_RETURN_NOT_OK(w.WriteSection(kPipelineTailSection, tail));

  // The base model rides along as its own complete artifact, so the
  // model layer's validation and type dispatch apply unchanged.
  std::ostringstream model_stream(std::ios::binary);
  GANC_RETURN_NOT_OK(base_->Save(model_stream));
  const std::string model_bytes = std::move(model_stream).str();
  PayloadWriter model;
  model.WriteString(model_bytes);
  GANC_RETURN_NOT_OK(w.WriteSection(kPipelineModelSection, model));
  return w.Finish();
}

Status GancPipeline::SaveFile(const std::string& path) const {
  return WriteArtifactFile(path,
                           [&](std::ostream& os) { return Save(os); });
}

Result<std::unique_ptr<GancPipeline>> GancPipeline::Load(
    std::istream& is, const RatingDataset& train, int num_threads) {
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (1 = serial, 0 = hardware concurrency)");
  }
  ArtifactReader r(is);
  Result<ArtifactHeader> header = r.ReadHeader();
  if (!header.ok()) return header.status();
  GANC_RETURN_NOT_OK(ExpectArtifact(*header, ArtifactKind::kPipeline, 0));

  Result<ArtifactReader::Section> config_section = r.ReadSectionExpect(
      kPipelineConfigSection);
  if (!config_section.ok()) return config_section.status();
  PayloadReader cr(config_section->payload());
  PipelineConfig config;
  uint32_t theta_model = 0;
  uint32_t coverage = 0;
  uint8_t indicator = 0;
  GANC_RETURN_NOT_OK(cr.ReadU32(&theta_model));
  GANC_RETURN_NOT_OK(cr.ReadU32(&coverage));
  GANC_RETURN_NOT_OK(cr.ReadI32(&config.top_n));
  GANC_RETURN_NOT_OK(cr.ReadI32(&config.sample_size));
  GANC_RETURN_NOT_OK(cr.ReadU64(&config.seed));
  GANC_RETURN_NOT_OK(cr.ReadU8(&indicator));
  GANC_RETURN_NOT_OK(cr.ReadF64(&config.constant_theta));
  uint64_t fingerprint = 0;
  GANC_RETURN_NOT_OK(cr.ReadU64(&fingerprint));
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  if (theta_model > static_cast<uint32_t>(PreferenceModel::kConstant) ||
      coverage > static_cast<uint32_t>(CoverageKind::kDyn) ||
      config.top_n <= 0) {
    return Status::InvalidArgument("invalid pipeline config in artifact");
  }
  // The whole artifact (theta, tail stats, KNN-style models) is a
  // function of the exact train split; refuse rebinding to different
  // data even when the dimensions happen to match (e.g. the same corpus
  // split with a different seed).
  if (fingerprint != train.Fingerprint()) {
    return Status::InvalidArgument(
        "pipeline artifact was trained on different data than the bound "
        "train dataset (fingerprint mismatch)");
  }
  config.theta_model = static_cast<PreferenceModel>(theta_model);
  config.coverage = static_cast<CoverageKind>(coverage);
  config.indicator_accuracy = indicator != 0;
  config.fit_base = false;
  config.num_threads = num_threads;

  Result<ArtifactReader::Section> theta_section = r.ReadSectionExpect(
      kPipelineThetaSection);
  if (!theta_section.ok()) return theta_section.status();
  PayloadReader tr(theta_section->payload());
  std::vector<double> theta;
  GANC_RETURN_NOT_OK(tr.ReadVecF64(&theta));
  GANC_RETURN_NOT_OK(tr.ExpectEnd());
  if (static_cast<int32_t>(theta.size()) != train.num_users()) {
    return Status::InvalidArgument(
        "pipeline artifact theta size does not match the bound train dataset");
  }

  Result<ArtifactReader::Section> tail_section = r.ReadSectionExpect(
      kPipelineTailSection);
  if (!tail_section.ok()) return tail_section.status();
  PayloadReader lr(tail_section->payload());
  LongTailInfo tail;
  uint64_t tail_items = 0;
  GANC_RETURN_NOT_OK(lr.ReadI32(&tail.tail_size));
  GANC_RETURN_NOT_OK(lr.ReadI32(&tail.num_rated_items));
  GANC_RETURN_NOT_OK(lr.ReadF64(&tail.tail_percent));
  GANC_RETURN_NOT_OK(lr.ReadU64(&tail_items));
  if (tail_items != static_cast<uint64_t>(train.num_items()) ||
      tail_items > lr.remaining()) {
    return Status::InvalidArgument(
        "pipeline artifact long-tail stats do not match the train dataset");
  }
  tail.is_long_tail.resize(tail_items);
  for (uint64_t i = 0; i < tail_items; ++i) {
    uint8_t b = 0;
    GANC_RETURN_NOT_OK(lr.ReadU8(&b));
    tail.is_long_tail[i] = b != 0;
  }
  GANC_RETURN_NOT_OK(lr.ExpectEnd());

  Result<ArtifactReader::Section> model_section = r.ReadSectionExpect(
      kPipelineModelSection);
  if (!model_section.ok()) return model_section.status();
  PayloadReader mr(model_section->payload());
  std::string model_bytes;
  GANC_RETURN_NOT_OK(mr.ReadString(&model_bytes));
  GANC_RETURN_NOT_OK(mr.ExpectEnd());
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));

  std::istringstream model_stream(std::move(model_bytes), std::ios::binary);
  Result<std::unique_ptr<Recommender>> base = LoadModel(model_stream, &train);
  if (!base.ok()) return base.status();
  if ((*base)->num_items() != train.num_items()) {
    return Status::InvalidArgument(
        "pipeline artifact model catalog does not match the train dataset");
  }
  return std::unique_ptr<GancPipeline>(
      new GancPipeline(std::move(base).value(), &train, config,
                       std::move(theta), std::move(tail),
                       MakeOwnedPool(config)));
}

Result<std::unique_ptr<GancPipeline>> GancPipeline::LoadFile(
    const std::string& path, const RatingDataset& train, int num_threads) {
  return ReadArtifactFile(path, [&](std::istream& is) {
    return Load(is, train, num_threads);
  });
}

Result<TopNCollection> GancPipeline::RecommendAll() const {
  GancConfig cfg;
  cfg.top_n = config_.top_n;
  cfg.sample_size = config_.sample_size;
  cfg.seed = config_.seed;
  cfg.pool = config_.pool != nullptr ? config_.pool : owned_pool_.get();
  return ganc_->RecommendAll(*train_, cfg);
}

std::vector<ItemId> GancPipeline::RecommendForUser(UserId u) const {
  ScoringContext ctx;
  const std::span<double> acc =
      ctx.Scores(static_cast<size_t>(train_->num_items()));
  scorer_->ScoreInto(u, acc);
  train_->UnratedItemsInto(u, &ctx.Candidates());
  std::vector<ItemId> out;
  GreedyTopNForUserInto(acc, theta_[static_cast<size_t>(u)], *coverage_, u,
                        ctx.Candidates(), config_.top_n, ctx, out);
  return out;
}

std::string GancPipeline::name() const {
  return ganc_->Name(PreferenceModelName(config_.theta_model));
}

}  // namespace ganc
