// Swap-under-load determinism: a live PUBLISH while >=1000 concurrent
// requests are in flight must drop nothing, and every response must be
// bit-identical to the offline reference of whichever snapshot version
// it reports having been served from. Also covers the rejection path:
// a fingerprint-mismatched artifact must be refused while the old
// snapshot keeps serving untouched.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "recommender/model_io.h"
#include "recommender/psvd.h"
#include "serve/recommendation_service.h"
#include "serve/shard_router.h"
#include "serve/service_shard.h"
#include "util/metrics.h"

namespace ganc {
namespace {

constexpr int kN = 5;
constexpr int kThreads = 8;
constexpr int kMinRequestsPerThread = 150;  // 8 * 150 = 1200 >= 1000

RatingDataset MakeTrain() {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 50;
  spec.num_items = 90;
  spec.mean_activity = 16.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

std::string SaveModel(const RatingDataset& train, const std::string& name,
                      int factors) {
  PsvdRecommender model(PsvdConfig{.num_factors = factors});
  EXPECT_TRUE(model.Fit(train).ok());
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(SaveModelFile(model, path).ok());
  return path;
}

// Per-user reference lists computed by a fresh unsharded service over
// the given artifact.
std::vector<std::vector<ItemId>> Reference(const std::string& path,
                                           const RatingDataset& train) {
  Result<std::unique_ptr<RecommendationService>> service =
      RecommendationService::LoadModelService(path, train, {});
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  std::vector<std::vector<ItemId>> lists(train.num_users());
  for (UserId u = 0; u < train.num_users(); ++u) {
    EXPECT_TRUE((*service)->TopNInto(u, kN, {}, &lists[u]).ok());
  }
  return lists;
}

struct Served {
  UserId user;
  size_t shard;
  uint64_t version;
  std::vector<ItemId> items;
};

TEST(SwapParityTest, LivePublishUnderConcurrentLoadIsDeterministic) {
  const RatingDataset train = MakeTrain();
  const std::string path_a = SaveModel(train, "swap_a.gam", 8);
  const std::string path_b = SaveModel(train, "swap_b.gam", 12);
  const auto ref_a = Reference(path_a, train);
  const auto ref_b = Reference(path_b, train);
  // The two snapshots must actually disagree somewhere, or version
  // attribution would be vacuous.
  ASSERT_NE(ref_a, ref_b);

  ServiceConfig config;
  config.metrics = std::make_shared<MetricsRegistry>();
  auto router_or = ShardRouter::Load(SnapshotKind::kModel, path_a, train,
                                     3, config);
  ASSERT_TRUE(router_or.ok()) << router_or.status().ToString();
  ShardRouter& router = **router_or;

  const std::vector<uint64_t> va = router.versions();
  const std::set<uint64_t> versions_a(va.begin(), va.end());

  std::atomic<bool> start{false};
  std::atomic<bool> published{false};
  std::atomic<uint64_t> total{0};
  std::atomic<int> errors{0};
  std::vector<std::vector<Served>> per_thread(kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      auto& log = per_thread[t];
      int after_publish = 0;
      for (int i = 0; after_publish < kMinRequestsPerThread; ++i) {
        const UserId user =
            static_cast<UserId>((i * (t + 1) * 7 + t * 13) %
                                train.num_users());
        Served s;
        s.user = user;
        s.shard = router.IndexFor(user);
        const Status st = router.TopNInto(user, kN, {}, &s.items, &s.version);
        if (!st.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        } else {
          log.push_back(std::move(s));
        }
        total.fetch_add(1, std::memory_order_relaxed);
        if (published.load(std::memory_order_acquire)) ++after_publish;
      }
    });
  }

  start.store(true, std::memory_order_release);
  // Let a healthy pre-publish backlog accumulate, then swap live.
  while (total.load(std::memory_order_relaxed) < 100) {
    std::this_thread::yield();
  }
  uint64_t max_version = 0;
  const Status pub = router.Publish(path_b, &max_version);
  ASSERT_TRUE(pub.ok()) << pub.ToString();
  published.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  const std::vector<uint64_t> vb = router.versions();
  const std::set<uint64_t> versions_b(vb.begin(), vb.end());
  EXPECT_EQ(max_version, *versions_b.rbegin());
  for (const uint64_t v : versions_b) {
    EXPECT_EQ(versions_a.count(v), 0u) << "publish must mint new versions";
  }

  // Zero drops: every issued request either succeeded or (never, here)
  // errored — and nothing errored.
  EXPECT_EQ(errors.load(), 0);
  uint64_t recorded = 0;
  uint64_t served_old = 0;
  uint64_t served_new = 0;
  for (int t = 0; t < kThreads; ++t) {
    // Versions seen by one thread on one shard never move backwards.
    std::map<size_t, uint64_t> last_version;
    for (const Served& s : per_thread[t]) {
      ++recorded;
      auto [it, inserted] = last_version.try_emplace(s.shard, s.version);
      if (!inserted) {
        EXPECT_GE(s.version, it->second)
            << "thread " << t << " shard " << s.shard;
        it->second = s.version;
      }
      // Bit-identity against the reference for the version actually
      // served.
      if (versions_a.count(s.version) > 0) {
        ++served_old;
        EXPECT_EQ(s.items, ref_a[s.user]) << "user " << s.user;
      } else {
        ASSERT_GT(versions_b.count(s.version), 0u)
            << "response reports unknown version " << s.version;
        ++served_new;
        EXPECT_EQ(s.items, ref_b[s.user]) << "user " << s.user;
      }
    }
  }
  EXPECT_GE(recorded, 1000u);
  // The load genuinely spanned the swap.
  EXPECT_GT(served_old, 0u);
  EXPECT_GT(served_new, 0u);
  const MetricsSnapshot swaps = config.metrics->Snapshot();
  EXPECT_EQ(swaps.CounterValue("serve_publishes_total"), 3u);
  EXPECT_EQ(swaps.CounterValue("serve_publish_rejects_total"), 0u);
}

TEST(SwapParityTest, MismatchedArtifactIsRejectedAndOldSnapshotKeepsServing) {
  const RatingDataset train = MakeTrain();
  const std::string path_a = SaveModel(train, "swap_keep_a.gam", 8);
  const auto ref_a = Reference(path_a, train);

  // An artifact trained on a different dataset: same format, wrong
  // fingerprint.
  SyntheticSpec other_spec = TinySpec();
  other_spec.num_users = 40;
  other_spec.num_items = 80;
  auto other = GenerateSynthetic(other_spec);
  ASSERT_TRUE(other.ok());
  const std::string path_bad =
      SaveModel(*other, "swap_keep_mismatch.gam", 8);

  ServiceConfig config;
  config.metrics = std::make_shared<MetricsRegistry>();
  auto router_or = ShardRouter::Load(SnapshotKind::kModel, path_a, train,
                                     3, config);
  ASSERT_TRUE(router_or.ok());
  ShardRouter& router = **router_or;
  const std::vector<uint64_t> before = router.versions();

  EXPECT_FALSE(router.Publish(path_bad).ok());
  EXPECT_FALSE(router.Publish(testing::TempDir() + "/no_such.gam").ok());

  // Old snapshot untouched: same versions, same bits.
  EXPECT_EQ(router.versions(), before);
  const MetricsSnapshot swaps = config.metrics->Snapshot();
  EXPECT_GE(swaps.CounterValue("serve_publish_rejects_total"), 2u);
  EXPECT_EQ(swaps.CounterValue("serve_publishes_total"), 0u);
  std::vector<ItemId> out;
  for (UserId u = 0; u < train.num_users(); ++u) {
    ASSERT_TRUE(router.TopNInto(u, kN, {}, &out, nullptr).ok());
    EXPECT_EQ(out, ref_a[u]) << "user " << u;
  }
}

}  // namespace
}  // namespace ganc
