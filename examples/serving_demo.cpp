// Serving demo: the full online-layer lifecycle in one process.
//
//   build/example_serving_demo
//
// Trains a PSVD model, persists it, brings it back as a serving
// snapshot through RecommendationService::LoadModelService, and then
// exercises every request path:
//   1. parity — concurrent micro-batched requests against the offline
//      RecommendAllUsers reference (exits non-zero on any mismatch, so
//      CI can run this binary as a check),
//   2. a precomputed top-N store for the most active users,
//   3. a session overlay masking freshly consumed items, and
//   4. the serving counters.

#include <cstdio>
#include <thread>
#include <vector>

#include "data/split.h"
#include "data/synthetic.h"
#include "recommender/model_io.h"
#include "recommender/psvd.h"
#include "recommender/recommender.h"
#include "serve/recommendation_service.h"
#include "serve/session_overlay.h"
#include "serve/topn_store.h"
#include "util/metrics.h"

using namespace ganc;

int main() {
  // 1. Offline: data, split, fit, persist — the part a training job runs.
  SyntheticSpec spec = TinySpec();
  spec.num_users = 120;
  spec.num_items = 300;
  spec.mean_activity = 25.0;
  auto dataset = GenerateSynthetic(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  auto split = PerUserRatioSplit(*dataset, {.train_ratio = 0.5, .seed = 42});
  if (!split.ok()) {
    std::fprintf(stderr, "split: %s\n", split.status().ToString().c_str());
    return 1;
  }
  const RatingDataset& train = split->train;
  PsvdRecommender model(PsvdConfig{.num_factors = 16});
  if (Status s = model.Fit(train); !s.ok()) {
    std::fprintf(stderr, "fit: %s\n", s.ToString().c_str());
    return 1;
  }
  // CWD-relative so concurrent runs (parallel CI jobs, shared hosts)
  // don't collide on one /tmp path.
  const std::string artifact = "serving_demo_psvd16.gam";
  if (Status s = SaveModelFile(model, artifact); !s.ok()) {
    std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("offline: trained %s on %d users x %d items, saved to %s\n",
              model.name().c_str(), train.num_users(), train.num_items(),
              artifact.c_str());

  // 2. Online: load the artifact as an immutable serving snapshot.
  ServiceConfig config;
  config.num_workers = 2;
  config.cache_capacity = 1024;
  config.default_n = 10;
  auto service =
      RecommendationService::LoadModelService(artifact, train, config);
  if (!service.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  std::printf("online: serving %s, snapshot v%llu, micro-batched\n",
              (*service)->source().c_str(),
              static_cast<unsigned long long>(
                  (*service)->snapshot_version()));

  // 3. Parity under concurrency: every served list must equal the
  //    offline reference bit-for-bit, no matter how requests interleave.
  constexpr int kN = 10;
  const std::vector<std::vector<ItemId>> offline =
      RecommendAllUsers(model, train, kN);
  std::vector<std::thread> clients;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      std::vector<ItemId> out;
      for (int32_t step = 0; step < train.num_users(); ++step) {
        const UserId u =
            static_cast<UserId>((step * (t + 2) + t * 17) %
                                train.num_users());
        if (!(*service)->TopNInto(u, kN, {}, &out).ok() ||
            out != offline[static_cast<size_t>(u)]) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  int total_mismatches = 0;
  for (const int m : mismatches) total_mismatches += m;
  if (total_mismatches != 0) {
    std::fprintf(stderr, "parity FAILED: %d served lists differ\n",
                 total_mismatches);
    return 1;
  }
  std::printf("parity: 4 concurrent clients x %d users, all lists "
              "bit-identical to offline RecommendAllUsers\n",
              train.num_users());

  // 4. Precompute the head users' lists and attach the store.
  const std::vector<UserId> head = HeadUsersByActivity(train, 30);
  auto store = (*service)->BuildStore(head, kN);
  if (!store.ok()) {
    std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
    return 1;
  }
  if (Status s = (*service)->AttachStore(std::make_shared<const TopNStore>(
          std::move(store).value()));
      !s.ok()) {
    std::fprintf(stderr, "attach: %s\n", s.ToString().c_str());
    return 1;
  }
  const UserId hot = head[0];
  // Ask for a prefix length no earlier request used: the result cache
  // misses, so this request is really answered by the store (a stored
  // list is best-first, so its prefix is exact).
  constexpr int kPrefixN = kN - 2;
  auto from_store = (*service)->TopN(hot, kPrefixN);
  const std::vector<ItemId> want_prefix(
      offline[static_cast<size_t>(hot)].begin(),
      offline[static_cast<size_t>(hot)].begin() + kPrefixN);
  const MetricsRegistry& metrics = *(*service)->metrics_registry();
  if (!from_store.ok() || *from_store != want_prefix ||
      metrics.Snapshot().CounterValue("serve_store_hits_total") == 0) {
    std::fprintf(stderr, "store parity FAILED for user %d\n", hot);
    return 1;
  }
  std::printf("store: %zu head-user lists precomputed; user %d's top-%d now "
              "served from the flat store, still bit-identical\n",
              head.size(), hot, kPrefixN);

  // 5. Session overlay: consuming the top two items masks them from the
  //    next request without touching the snapshot.
  SessionOverlay session;
  session.MarkConsumed(hot, std::span<const ItemId>(from_store->data(), 2));
  auto masked = (*service)->TopN(hot, kN, session.ConsumedOf(hot));
  if (!masked.ok()) {
    std::fprintf(stderr, "overlay: %s\n",
                 masked.status().ToString().c_str());
    return 1;
  }
  for (const ItemId consumed : session.ConsumedOf(hot)) {
    for (const ItemId i : *masked) {
      if (i == consumed) {
        std::fprintf(stderr, "overlay FAILED: consumed item %d served\n",
                     consumed);
        return 1;
      }
    }
  }
  std::printf("session: consumed {%d, %d} -> next list starts at item %d "
              "(deltas applied at request time, no retraining)\n",
              (*from_store)[0], (*from_store)[1], (*masked)[0]);

  // 6. Counters, read from the service's metrics registry.
  const MetricsSnapshot stats = metrics.Snapshot();
  const auto count = [&stats](const char* name) {
    return stats.CounterValue(name);
  };
  const auto ratio = [](double num, uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  const MetricValue* latency = stats.Find("serve_request_ns");
  std::printf(
      "stats: %llu requests | %llu cache hits | %llu store hits | "
      "%llu live in %llu batches (mean fill %.2f) | "
      "mean latency %.1f us\n",
      static_cast<unsigned long long>(count("serve_requests_total")),
      static_cast<unsigned long long>(count("serve_cache_hits_total")),
      static_cast<unsigned long long>(count("serve_store_hits_total")),
      static_cast<unsigned long long>(count("serve_live_scored_total")),
      static_cast<unsigned long long>(count("serve_batches_total")),
      ratio(static_cast<double>(count("serve_batched_requests_total")),
            count("serve_batches_total")),
      latency == nullptr
          ? 0.0
          : ratio(static_cast<double>(latency->sum), latency->u64) / 1000.0);
  std::printf("serving demo finished OK\n");
  return 0;
}
