#include "recommender/cofirank.h"

#include <algorithm>
#include <utility>

#include "recommender/model_io.h"
#include "recommender/train_sweep.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace ganc {

CofiRecommender::CofiRecommender(CofiConfig config) : config_(config) {}

Status CofiRecommender::Fit(const RatingDataset& train) {
  return Fit(train, nullptr);
}

// Deterministic blocked SGD over fixed user blocks (see train_sweep.h and
// the RSVD trainer, which shares the pattern): user factors update in
// place, item factors update block-local copies that merge as deltas in
// ascending block order, and each (epoch, block) draws an independent
// shuffle stream — so the fit is bit-identical across thread counts and
// residency budgets.
Status CofiRecommender::Fit(const RatingDataset& train, ThreadPool* pool) {
  if (config_.num_factors <= 0) {
    return Status::InvalidArgument("num_factors must be positive");
  }
  num_users_ = train.num_users();
  train_fingerprint_ = train.Fingerprint();
  num_items_ = train.num_items();
  const size_t g = static_cast<size_t>(config_.num_factors);
  const int32_t ublock =
      config_.user_block > 0 ? config_.user_block : kTrainUserBlock;

  // Per-user min-max normalization: the regression target is the user's
  // relative preference, not the absolute rating value. Each block writes
  // only its own users' slots, so the sweep needs no merge step.
  std::vector<float> lo(static_cast<size_t>(num_users_), 0.0f);
  std::vector<float> range(static_cast<size_t>(num_users_), 1.0f);
  GANC_RETURN_NOT_OK(SweepUserBlocks(
      train, ublock, pool,
      [&](const UserBlock& b) -> Status {
        for (UserId u = b.begin; u < b.end; ++u) {
          const auto& row = train.ItemsOf(u);
          if (row.empty()) continue;
          float mn = row[0].value, mx = row[0].value;
          for (const ItemRating& ir : row) {
            mn = std::min(mn, ir.value);
            mx = std::max(mx, ir.value);
          }
          lo[static_cast<size_t>(u)] = mn;
          range[static_cast<size_t>(u)] = std::max(mx - mn, 1e-6f);
        }
        return Status::OK();
      },
      nullptr));

  Rng rng(config_.seed);
  std::vector<double> user_factors(static_cast<size_t>(num_users_) * g);
  std::vector<double> item_factors(static_cast<size_t>(num_items_) * g);
  for (double& v : user_factors) v = rng.Uniform() * 0.1;
  for (double& v : item_factors) v = rng.Uniform() * 0.1;

  const int64_t num_blocks =
      num_users_ == 0 ? 0
                      : (static_cast<int64_t>(num_users_) + ublock - 1) /
                            ublock;
  struct BlockScratch {
    std::vector<ItemId> touched;  // distinct items of the block, ascending
    std::vector<double> q_local;  // touched.size() x g item-factor rows
  };
  std::vector<BlockScratch> scratch(static_cast<size_t>(num_blocks));
  std::vector<double> q_next;

  double lr = config_.learning_rate;
  const double lam = config_.regularization;
  for (int32_t epoch = 0; epoch < config_.num_epochs; ++epoch) {
    q_next = item_factors;  // epoch-start snapshot stays in item_factors

    const auto block_fn = [&](const UserBlock& b) -> Status {
      BlockScratch& s = scratch[static_cast<size_t>(b.index)];
      s.touched.clear();
      for (UserId u = b.begin; u < b.end; ++u) {
        for (const ItemRating& ir : train.ItemsOf(u)) {
          s.touched.push_back(ir.item);
        }
      }
      std::sort(s.touched.begin(), s.touched.end());
      s.touched.erase(std::unique(s.touched.begin(), s.touched.end()),
                      s.touched.end());
      s.q_local.resize(s.touched.size() * g);
      for (size_t t = 0; t < s.touched.size(); ++t) {
        const double* src =
            &item_factors[static_cast<size_t>(s.touched[t]) * g];
        std::copy(src, src + g, &s.q_local[t * g]);
      }

      std::vector<std::pair<UserId, int32_t>> order;
      for (UserId u = b.begin; u < b.end; ++u) {
        const int32_t n = static_cast<int32_t>(train.ItemsOf(u).size());
        for (int32_t k = 0; k < n; ++k) order.emplace_back(u, k);
      }
      Rng brng(MixSeed(config_.seed, static_cast<uint64_t>(epoch),
                       static_cast<uint64_t>(b.index)));
      brng.Shuffle(&order);

      for (const auto& [u, k] : order) {
        const ItemRating& ir = train.ItemsOf(u)[static_cast<size_t>(k)];
        const double target =
            (static_cast<double>(ir.value) - lo[static_cast<size_t>(u)]) /
            range[static_cast<size_t>(u)];
        const size_t t = static_cast<size_t>(
            std::lower_bound(s.touched.begin(), s.touched.end(), ir.item) -
            s.touched.begin());
        double* pu = &user_factors[static_cast<size_t>(u) * g];
        double* qi = &s.q_local[t * g];
        double pred = 0.0;
        for (size_t f = 0; f < g; ++f) pred += pu[f] * qi[f];
        const double err = target - pred;
        for (size_t f = 0; f < g; ++f) {
          const double puf = pu[f];
          pu[f] += lr * (err * qi[f] - lam * puf);
          qi[f] += lr * (err * puf - lam * qi[f]);
        }
      }
      return Status::OK();
    };

    const auto merge_fn = [&](const UserBlock& b) -> Status {
      BlockScratch& s = scratch[static_cast<size_t>(b.index)];
      for (size_t t = 0; t < s.touched.size(); ++t) {
        const size_t i = static_cast<size_t>(s.touched[t]);
        double* dst = &q_next[i * g];
        const double* loc = &s.q_local[t * g];
        const double* snap = &item_factors[i * g];
        for (size_t f = 0; f < g; ++f) dst[f] += loc[f] - snap[f];
      }
      s = BlockScratch{};
      return Status::OK();
    };

    GANC_RETURN_NOT_OK(
        SweepUserBlocks(train, ublock, pool, block_fn, merge_fn));
    item_factors.swap(q_next);
    lr *= config_.lr_decay;
    if (epoch_callback_) epoch_callback_(epoch + 1, config_.num_epochs);
  }
  factors_.AdoptFp64(std::move(user_factors), std::move(item_factors),
                     static_cast<size_t>(num_users_),
                     static_cast<size_t>(num_items_), g);
  return Status::OK();
}

FactorView CofiRecommender::View() const {
  FactorView v;
  factors_.BindView(&v);
  v.num_items = num_items_;
  return v;
}

void CofiRecommender::ScoreInto(UserId u, std::span<double> out) const {
  FactorScoringEngine(View()).ScoreInto(u, out);
}

void CofiRecommender::ScoreBatchInto(std::span<const UserId> users,
                                     std::span<double> out) const {
  FactorScoringEngine(View()).ScoreBatchInto(users, out);
}

Status CofiRecommender::Save(std::ostream& os) const {
  if (num_items() == 0) {
    return Status::FailedPrecondition("cannot save unfitted CofiR model");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kModel,
                                   static_cast<uint32_t>(ModelType::kCofi)));
  PayloadWriter config;
  config.WriteI32(config_.num_factors);
  config.WriteF64(config_.learning_rate);
  config.WriteF64(config_.regularization);
  config.WriteI32(config_.num_epochs);
  config.WriteF64(config_.lr_decay);
  config.WriteU64(config_.seed);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelConfigSection, config));
  PayloadWriter state;
  state.WriteI32(num_users_);
  state.WriteI32(num_items_);
  state.WriteU64(train_fingerprint_);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelStateSection, state));
  PayloadWriter factors;
  factors_.Save(&factors);
  GANC_RETURN_NOT_OK(w.WriteSection(kFactorTableSection, factors));
  return w.Finish();
}

Status CofiRecommender::Load(ArtifactReader& r, const RatingDataset* train) {
  GANC_RETURN_NOT_OK(ReadModelHeader(r, ModelType::kCofi));
  Result<ArtifactReader::Section> config = r.ReadSectionExpect(
      kModelConfigSection);
  if (!config.ok()) return config.status();
  PayloadReader cr(config->payload);
  CofiConfig cfg;
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.num_factors));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.learning_rate));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.regularization));
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.num_epochs));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.lr_decay));
  GANC_RETURN_NOT_OK(cr.ReadU64(&cfg.seed));
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  if (cfg.num_factors <= 0) {
    return Status::InvalidArgument("invalid CofiR factor count in artifact");
  }
  Result<ArtifactReader::Section> state = r.ReadSectionExpect(
      kModelStateSection);
  if (!state.ok()) return state.status();
  PayloadReader sr(state->payload);
  int32_t num_users = 0;
  int32_t num_items = 0;
  uint64_t fingerprint = 0;
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_users));
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_items));
  GANC_RETURN_NOT_OK(sr.ReadU64(&fingerprint));
  GANC_RETURN_NOT_OK(sr.ExpectEnd());
  Result<ArtifactReader::Section> factors = r.BorrowSectionExpect(
      kFactorTableSection);
  if (!factors.ok()) return factors.status();
  FactorStore store;
  GANC_RETURN_NOT_OK(store.Load(r, *factors));
  const size_t g = static_cast<size_t>(cfg.num_factors);
  if (num_users < 0 || num_items < 0 || store.num_factors() != g ||
      store.user_rows() != static_cast<size_t>(num_users) ||
      store.item_rows() != static_cast<size_t>(num_items)) {
    return Status::InvalidArgument("inconsistent CofiR factor dimensions");
  }
  if (train != nullptr) {
    if (num_users != train->num_users() || num_items != train->num_items()) {
      return Status::InvalidArgument(
          "CofiR artifact dimensions do not match the provided dataset");
    }
    if (fingerprint != train->Fingerprint()) {
      return Status::InvalidArgument(
          "CofiR artifact was trained on different data than the provided "
          "dataset (fingerprint mismatch)");
    }
  }
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));
  config_ = cfg;
  num_users_ = num_users;
  num_items_ = num_items;
  train_fingerprint_ = fingerprint;
  factors_ = std::move(store);
  return Status::OK();
}

}  // namespace ganc
