// Inputs of the serve workloads, all generated from --seed: the corpus,
// the served artifacts, and the request streams.

#ifndef GANC_BENCH_E2E_SERVE_INPUTS_H_
#define GANC_BENCH_E2E_SERVE_INPUTS_H_

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/longtail.h"
#include "data/synthetic.h"
#include "loadgen.h"
#include "recommender/model_io.h"
#include "recommender/psvd.h"
#include "serve/recommendation_service.h"
#include "serve/service_shard.h"
#include "serve/topn_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ganc::e2e {

constexpr int kConns = 4;      ///< traffic connections (one per core)
constexpr int kListLen = 10;   ///< served list length (TOPN n=10)
constexpr int kThreads = 4;    ///< training threads and server workers

enum class ServeMode { kHead, kLive, kSession };

struct ServeWorkload {
  const char* name;
  ServeMode mode;
  double rate;  ///< nominal open-loop arrivals per second
};

// Nominal rates keep each connection about 15% busy (trace.unit_us x
// rate / 4): at twice these rates a host stall of 3x, which this host
// shows for minutes at a time, tipped the open loop into an unbounded
// queue and second-long latencies.
inline constexpr ServeWorkload kServeWorkloads[] = {
    {"serve_head", ServeMode::kHead, 8000.0},
    {"serve_live", ServeMode::kLive, 2000.0},
    {"serve_session", ServeMode::kSession, 2500.0},
};

/// Independent generator stream `stream` of run seed `seed`.
inline Rng StreamRng(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL + 1);
}

/// Files and in-memory state of one serve workload's inputs.
struct ServeInputs {
  std::string cache;          ///< .gdc dataset cache
  std::string artifact;       ///< .gam (model modes) or .gap (session)
  std::string store;          ///< .gts (serve_head only)
  std::string artifact_copy;  ///< byte-identical .gap copy for PUBLISH
  RatingDataset train;        ///< the cache, mapped and made resident
  LongTailInfo tail;
  std::vector<UserId> by_activity;  ///< most active first, ties by id
  double fit_s = 0.0;
  double create_s = 0.0;  ///< GancPipeline::Create after the fit
  double save_s = 0.0;    ///< artifact (and store) saves
  double store_s = 0.0;   ///< store build
  double train_s() const { return fit_s + create_s + save_s + store_s; }
};

/// Generates the power-law corpus and trains the served artifacts. The
/// artifact build is timed (train_s); the corpus generation is not.
inline std::unique_ptr<ServeInputs> BuildServeInputs(const Sizes& sizes,
                                                     ServeMode mode,
                                                     uint64_t seed,
                                                     const std::string& dir) {
  auto in = std::make_unique<ServeInputs>();
  ThreadPool pool(kThreads);
  ScaleSyntheticSpec spec = PowerLawScaleSpec(sizes.serve_users);
  spec.seed = seed;
  in->cache = dir + "/serve.gdc";
  Check(GenerateSyntheticStream(spec, in->cache, &pool), "generate corpus");
  in->train =
      Check(RatingDataset::LoadFileAuto(in->cache, true), "open corpus");
  // Training and pipeline creation over a mapped cache need the resident
  // rows (a mapped-cache pipeline build crashes; README findings).
  Check(in->train.EnsureResident(), "materialize corpus");

  // One fit is too noisy to gate on; train_s takes the median of several
  // (the fits are deterministic, so any of them is the served model).
  std::unique_ptr<PsvdRecommender> model;
  std::vector<double> fits;
  for (int k = 0; k < sizes.serve_fits; ++k) {
    model = std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 10});
    const double t0 = Now();
    Check(model->Fit(in->train, &pool), "fit PSVD10");
    fits.push_back(Now() - t0);
  }
  in->fit_s = Median(fits);

  if (mode == ServeMode::kSession) {
    const double t1 = Now();
    PipelineConfig pc;
    pc.theta_model = PreferenceModel::kGeneralized;
    pc.coverage = CoverageKind::kDyn;
    pc.seed = seed;
    pc.fit_base = false;
    pc.num_threads = kThreads;
    auto pipeline = Check(GancPipeline::Create(std::move(model), in->train, pc),
                          "create pipeline");
    const double t2 = Now();
    in->artifact = dir + "/serve.gap";
    Check(pipeline->SaveFile(in->artifact), "save pipeline");
    in->create_s = t2 - t1;
    in->save_s = Now() - t2;
    in->artifact_copy = dir + "/serve-copy.gap";
    std::filesystem::copy_file(in->artifact, in->artifact_copy);
  } else {
    const double t1 = Now();
    in->artifact = dir + "/serve.gam";
    Check(SaveModelFile(*model, in->artifact), "save model");
    in->save_s = Now() - t1;
    if (mode == ServeMode::kHead) {
      const double t2 = Now();
      ServiceConfig sc;
      sc.micro_batching = false;
      sc.cache_capacity = 0;
      sc.domain_metrics = false;
      sc.metrics = std::make_shared<MetricsRegistry>();
      auto service = Check(RecommendationService::Create(*model, in->train, sc),
                           "store service");
      const TopNStore store = Check(
          service->BuildStore(HeadUsersByActivity(in->train, sizes.store_users),
                              kListLen),
          "build store");
      const double t3 = Now();
      in->store = dir + "/serve.gts";
      Check(store.SaveFile(in->store), "save store");
      in->store_s = t3 - t2;
      in->save_s += Now() - t3;
    }
  }

  in->tail = ComputeLongTail(in->train);
  const int32_t nu = in->train.num_users();
  in->by_activity.resize(static_cast<size_t>(nu));
  for (int32_t u = 0; u < nu; ++u) in->by_activity[static_cast<size_t>(u)] = u;
  std::sort(in->by_activity.begin(), in->by_activity.end(),
            [&](UserId a, UserId b) {
              const int32_t aa = in->train.Activity(a);
              const int32_t ab = in->train.Activity(b);
              return aa != ab ? aa > ab : a < b;
            });
  return in;
}

/// Draws users and request lines for one workload's traffic mix.
///   serve_head, serve_session: users Zipf(1.0) over activity rank.
///   serve_live: users uniform over the whole population.
///   serve_session: 25% CONSUME of two Zipf(0.9) items (item 0 is the
///   most popular in the power-law corpus), 75% TOPN with the user's
///   session, whose consumed items the server excludes.
class Traffic {
 public:
  Traffic(ServeMode mode, const ServeInputs& in)
      : mode_(mode),
        by_activity_(&in.by_activity),
        num_users_(in.train.num_users()),
        user_zipf_(ZipfWeights(in.by_activity.size(), 1.0)),
        item_zipf_(
            ZipfWeights(static_cast<size_t>(in.train.num_items()), 0.9)) {}

  UserId DrawUser(Rng* rng) const {
    if (mode_ == ServeMode::kLive) {
      return static_cast<UserId>(
          rng->UniformInt(static_cast<uint64_t>(num_users_)));
    }
    return (*by_activity_)[user_zipf_.Sample(rng)];
  }

  std::string Line(UserId u, Rng* rng) const {
    const std::string user = std::to_string(u);
    if (mode_ != ServeMode::kSession) return "TOPN user=" + user + " n=10";
    if (rng->Bernoulli(0.25)) {
      const size_t a = item_zipf_.Sample(rng);
      size_t b = item_zipf_.Sample(rng);
      while (b == a) b = item_zipf_.Sample(rng);
      return "CONSUME session=s" + user + " user=" + user +
             " items=" + std::to_string(a) + "," + std::to_string(b);
    }
    return "TOPN user=" + user + " n=10 session=s" + user;
  }

  /// The connection (of `conns`) a user is pinned to, so each session's
  /// requests reach the server in the order they were generated.
  static int ConnFor(UserId u, int conns = kConns) {
    return static_cast<int>(ShardForUser(u, static_cast<size_t>(conns)));
  }

  /// Seeded Poisson arrivals at `rate` over [0, duration).
  std::vector<Request> Schedule(double rate, double duration, Rng* rng) const {
    std::vector<Request> out;
    for (double at = 0.0;;) {
      at += -std::log(1.0 - rng->Uniform()) / rate;
      if (at >= duration) break;
      const UserId u = DrawUser(rng);
      out.push_back({at, ConnFor(u), Line(u, rng)});
    }
    return out;
  }

  /// Next closed-loop request for connection `conn` of `conns`.
  std::string Next(int conn, int conns, Rng* rng) const {
    for (;;) {
      const UserId u = DrawUser(rng);
      if (ConnFor(u, conns) == conn) return Line(u, rng);
    }
  }

 private:
  ServeMode mode_;
  const std::vector<UserId>* by_activity_;
  int32_t num_users_;
  AliasSampler user_zipf_;
  AliasSampler item_zipf_;
};

}  // namespace ganc::e2e

#endif  // GANC_BENCH_E2E_SERVE_INPUTS_H_
