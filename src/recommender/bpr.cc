#include "recommender/bpr.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "recommender/model_io.h"
#include "recommender/train_sweep.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace ganc {

namespace {
double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

BprRecommender::BprRecommender(BprConfig config) : config_(config) {}

Status BprRecommender::Fit(const RatingDataset& train) {
  return Fit(train, nullptr);
}

// Deterministic blocked sampling SGD (see train_sweep.h). The epoch's
// triple budget T = samples_per_rating * |D| is split across fixed user
// blocks proportionally to their rating mass via a floor-cumulative
// split (sums to exactly T); each block samples its positives from its
// own CSR rows and its negatives by rejection against the sampled
// user's row, drawing from an independent (seed, epoch, block) stream.
// User factors update in place; item factors/biases update block-local
// rows (keyed in first-touch order) whose deltas merge serially in
// ascending block order. Thread count and residency budget therefore
// never change the fitted model.
Status BprRecommender::Fit(const RatingDataset& train, ThreadPool* pool) {
  if (config_.num_factors <= 0) {
    return Status::InvalidArgument("num_factors must be positive");
  }
  if (train.num_ratings() == 0) {
    return Status::InvalidArgument("BPR needs a non-empty train set");
  }
  num_users_ = train.num_users();
  train_fingerprint_ = train.Fingerprint();
  num_items_ = train.num_items();
  const size_t g = static_cast<size_t>(config_.num_factors);
  const int32_t ublock =
      config_.user_block > 0 ? config_.user_block : kTrainUserBlock;

  Rng rng(config_.seed);
  std::vector<double> user_factors(static_cast<size_t>(num_users_) * g);
  std::vector<double> item_factors(static_cast<size_t>(num_items_) * g);
  for (double& v : user_factors) v = rng.Normal(0.0, 0.1);
  for (double& v : item_factors) v = rng.Normal(0.0, 0.1);
  item_bias_.assign(static_cast<size_t>(num_items_), 0.0);

  const int64_t nnz = train.num_ratings();
  const int64_t triples_per_epoch = std::max<int64_t>(
      1,
      static_cast<int64_t>(config_.samples_per_rating *
                           static_cast<double>(nnz)));
  const double lr = config_.learning_rate;
  const double lam = config_.regularization;

  const int64_t num_blocks =
      num_users_ == 0 ? 0
                      : (static_cast<int64_t>(num_users_) + ublock - 1) /
                            ublock;
  struct BlockScratch {
    std::vector<ItemId> touched;               // first-touch order
    std::unordered_map<ItemId, size_t> slot;   // item -> local row
    std::vector<double> q_local;               // touched.size() x g
    std::vector<double> b_local;               // touched.size()
  };
  std::vector<BlockScratch> scratch(static_cast<size_t>(num_blocks));
  std::vector<double> q_next;
  std::vector<double> bias_next;

  for (int32_t epoch = 0; epoch < config_.num_epochs; ++epoch) {
    q_next = item_factors;  // epoch-start snapshot stays in item_factors
    bias_next = item_bias_;

    const auto block_fn = [&](const UserBlock& b) -> Status {
      BlockScratch& s = scratch[static_cast<size_t>(b.index)];
      s.touched.clear();
      s.slot.clear();
      s.q_local.clear();
      s.b_local.clear();
      // Negatives are unpredictable, so local item rows are keyed lazily
      // in first-touch order instead of precomputed like RSVD's.
      const auto local_row = [&](ItemId i) -> size_t {
        const auto [it, inserted] = s.slot.emplace(i, s.touched.size());
        if (inserted) {
          s.touched.push_back(i);
          const double* src = &item_factors[static_cast<size_t>(i) * g];
          s.q_local.insert(s.q_local.end(), src, src + g);
          s.b_local.push_back(item_bias_[static_cast<size_t>(i)]);
        }
        return it->second;
      };

      // This block's share of the epoch's triple budget: cumulative-floor
      // split over the CSR rating mass, exact-sum by construction.
      const int64_t c0 = train.RowStart(b.begin);
      const int64_t c1 = train.RowStart(b.end);
      const int64_t t0 = triples_per_epoch * c0 / nnz;
      const int64_t t1 = triples_per_epoch * c1 / nnz;

      Rng brng(MixSeed(config_.seed, static_cast<uint64_t>(epoch),
                       static_cast<uint64_t>(b.index)));
      for (int64_t t = t0; t < t1; ++t) {
        // Sample a positive observation uniformly from the block's rows,
        // then a negative item the user has not interacted with
        // (rejection against the user's already-resident row).
        const int64_t ridx =
            c0 + static_cast<int64_t>(
                     brng.UniformInt(static_cast<uint64_t>(c1 - c0)));
        UserId lo = b.begin, hi = b.end;  // largest u: RowStart(u) <= ridx
        while (hi - lo > 1) {
          const UserId mid = lo + (hi - lo) / 2;
          if (static_cast<int64_t>(train.RowStart(mid)) <= ridx) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        const UserId u = lo;
        const ItemRating& pos = train.ItemsOf(
            u)[static_cast<size_t>(ridx - train.RowStart(u))];
        if (train.Activity(u) >= num_items_) continue;  // nothing unseen
        ItemId j;
        do {
          j = static_cast<ItemId>(
              brng.UniformInt(static_cast<uint64_t>(num_items_)));
        } while (train.HasRating(u, j));

        const size_t ti = local_row(pos.item);
        const size_t tj = local_row(j);
        double* pu = &user_factors[static_cast<size_t>(u) * g];
        double* qi = &s.q_local[ti * g];
        double* qj = &s.q_local[tj * g];
        double x = s.b_local[ti] - s.b_local[tj];
        for (size_t f = 0; f < g; ++f) x += pu[f] * (qi[f] - qj[f]);
        const double grad = 1.0 - Sigmoid(x);  // d/dx of -ln sigma(x)

        s.b_local[ti] += lr * (grad - lam * s.b_local[ti]);
        s.b_local[tj] += lr * (-grad - lam * s.b_local[tj]);
        for (size_t f = 0; f < g; ++f) {
          const double puf = pu[f];
          const double qif = qi[f];
          const double qjf = qj[f];
          pu[f] += lr * (grad * (qif - qjf) - lam * puf);
          qi[f] += lr * (grad * puf - lam * qif);
          qj[f] += lr * (-grad * puf - lam * qjf);
        }
      }
      return Status::OK();
    };

    const auto merge_fn = [&](const UserBlock& b) -> Status {
      BlockScratch& s = scratch[static_cast<size_t>(b.index)];
      // First-touch order is fine: each destination row is distinct, so
      // the merge result does not depend on iteration order within a
      // block, and cross-block order is fixed by the ascending sweep.
      for (size_t t = 0; t < s.touched.size(); ++t) {
        const size_t i = static_cast<size_t>(s.touched[t]);
        double* dst = &q_next[i * g];
        const double* loc = &s.q_local[t * g];
        const double* snap = &item_factors[i * g];
        for (size_t f = 0; f < g; ++f) dst[f] += loc[f] - snap[f];
        bias_next[i] += s.b_local[t] - item_bias_[i];
      }
      s = BlockScratch{};
      return Status::OK();
    };

    GANC_RETURN_NOT_OK(
        SweepUserBlocks(train, ublock, pool, block_fn, merge_fn));
    item_factors.swap(q_next);
    item_bias_.swap(bias_next);
    if (epoch_callback_) epoch_callback_(epoch + 1, config_.num_epochs);
  }
  factors_.AdoptFp64(std::move(user_factors), std::move(item_factors),
                     static_cast<size_t>(num_users_),
                     static_cast<size_t>(num_items_), g);
  return Status::OK();
}

double BprRecommender::Score(UserId u, ItemId i) const {
  return FactorScoringEngine(View()).ScoreOne(u, i);
}

FactorView BprRecommender::View() const {
  FactorView v;
  factors_.BindView(&v);
  v.item_bias = item_bias_.data();
  v.num_items = num_items_;
  return v;
}

void BprRecommender::ScoreInto(UserId u, std::span<double> out) const {
  FactorScoringEngine(View()).ScoreInto(u, out);
}

void BprRecommender::ScoreBatchInto(std::span<const UserId> users,
                                    std::span<double> out) const {
  FactorScoringEngine(View()).ScoreBatchInto(users, out);
}

double BprRecommender::PairwiseAccuracy(const RatingDataset& train,
                                        const RatingDataset& test,
                                        int32_t samples,
                                        uint64_t seed) const {
  if (test.num_ratings() == 0 || samples <= 0) return 0.0;
  Rng rng(seed);
  int32_t correct = 0, total = 0;
  for (int32_t t = 0; t < samples; ++t) {
    const Rating& pos = test.ratings()[static_cast<size_t>(
        rng.UniformInt(test.ratings().size()))];
    ItemId j;
    int attempts = 0;
    do {
      j = static_cast<ItemId>(
          rng.UniformInt(static_cast<uint64_t>(num_items_)));
      if (++attempts > 64) break;
    } while (train.HasRating(pos.user, j) || test.HasRating(pos.user, j));
    if (attempts > 64) continue;
    ++total;
    if (Score(pos.user, pos.item) > Score(pos.user, j)) ++correct;
  }
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

Status BprRecommender::Save(std::ostream& os) const {
  if (num_items() == 0) {
    return Status::FailedPrecondition("cannot save unfitted BPR model");
  }
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kModel,
                                   static_cast<uint32_t>(ModelType::kBpr)));
  PayloadWriter config;
  config.WriteI32(config_.num_factors);
  config.WriteF64(config_.learning_rate);
  config.WriteF64(config_.regularization);
  config.WriteF64(config_.samples_per_rating);
  config.WriteI32(config_.num_epochs);
  config.WriteU64(config_.seed);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelConfigSection, config));
  PayloadWriter state;
  state.WriteI32(num_users_);
  state.WriteI32(num_items_);
  state.WriteU64(train_fingerprint_);
  state.WriteVecF64(item_bias_);
  GANC_RETURN_NOT_OK(w.WriteSection(kModelStateSection, state));
  PayloadWriter factors;
  factors_.Save(&factors);
  GANC_RETURN_NOT_OK(w.WriteSection(kFactorTableSection, factors));
  return w.Finish();
}

Status BprRecommender::Load(ArtifactReader& r, const RatingDataset* train) {
  GANC_RETURN_NOT_OK(ReadModelHeader(r, ModelType::kBpr));
  Result<ArtifactReader::Section> config = r.ReadSectionExpect(
      kModelConfigSection);
  if (!config.ok()) return config.status();
  PayloadReader cr(config->payload());
  BprConfig cfg;
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.num_factors));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.learning_rate));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.regularization));
  GANC_RETURN_NOT_OK(cr.ReadF64(&cfg.samples_per_rating));
  GANC_RETURN_NOT_OK(cr.ReadI32(&cfg.num_epochs));
  GANC_RETURN_NOT_OK(cr.ReadU64(&cfg.seed));
  GANC_RETURN_NOT_OK(cr.ExpectEnd());
  if (cfg.num_factors <= 0) {
    return Status::InvalidArgument("invalid BPR factor count in artifact");
  }
  Result<ArtifactReader::Section> state = r.ReadSectionExpect(
      kModelStateSection);
  if (!state.ok()) return state.status();
  PayloadReader sr(state->payload());
  int32_t num_users = 0;
  int32_t num_items = 0;
  uint64_t fingerprint = 0;
  std::vector<double> bi;
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_users));
  GANC_RETURN_NOT_OK(sr.ReadI32(&num_items));
  GANC_RETURN_NOT_OK(sr.ReadU64(&fingerprint));
  GANC_RETURN_NOT_OK(sr.ReadVecF64(&bi));
  GANC_RETURN_NOT_OK(sr.ExpectEnd());
  Result<ArtifactReader::Section> factors = r.ReadSectionExpect(
      kFactorTableSection);
  if (!factors.ok()) return factors.status();
  FactorStore store;
  GANC_RETURN_NOT_OK(store.LoadFromSection(r, *factors));
  const size_t g = static_cast<size_t>(cfg.num_factors);
  if (num_users < 0 || num_items < 0 || store.num_factors() != g ||
      store.user_rows() != static_cast<size_t>(num_users) ||
      store.item_rows() != static_cast<size_t>(num_items) ||
      bi.size() != static_cast<size_t>(num_items)) {
    return Status::InvalidArgument("inconsistent BPR factor dimensions");
  }
  if (train != nullptr) {
    if (num_users != train->num_users() || num_items != train->num_items()) {
      return Status::InvalidArgument(
          "BPR artifact dimensions do not match the provided dataset");
    }
    if (fingerprint != train->Fingerprint()) {
      return Status::InvalidArgument(
          "BPR artifact was trained on different data than the provided "
          "dataset (fingerprint mismatch)");
    }
  }
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));
  config_ = cfg;
  num_users_ = num_users;
  num_items_ = num_items;
  train_fingerprint_ = fingerprint;
  factors_ = std::move(store);
  item_bias_ = std::move(bi);
  return Status::OK();
}

}  // namespace ganc
