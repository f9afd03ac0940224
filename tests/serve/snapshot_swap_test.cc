// ArtifactWatcher unit suite, driven through CheckNow() so every poll
// step is deterministic: baseline suppression, the two-poll stability
// gate against torn writes, failure memory (one rejection per bad
// artifact, not one per poll), and background-thread publication.

#include "serve/snapshot_swap.h"

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "util/metrics.h"

namespace ganc {
namespace {

// Watcher events land in the process-global registry. Tests run one
// after another, so a counter's growth since the test began is exactly
// what that test's watcher did.
class WatchCounts {
 public:
  WatchCounts() : start_(Read()) {}

  uint64_t polls() const { return Delta("serve_watch_polls_total"); }
  uint64_t publishes() const { return Delta("serve_watch_publishes_total"); }
  uint64_t failures() const { return Delta("serve_watch_failures_total"); }

 private:
  static MetricsSnapshot Read() { return MetricsRegistry::Global().Snapshot(); }
  uint64_t Delta(const std::string& name) const {
    return Read().CounterValue(name) - start_.CounterValue(name);
  }

  MetricsSnapshot start_;
};

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good());
}

struct PublishLog {
  int calls = 0;
  Status next = Status::OK();

  ArtifactWatcher::PublishFn Fn() {
    return [this](const std::string&) {
      ++calls;
      return next;
    };
  }
};

TEST(ArtifactWatcherTest, BaselineArtifactIsNotRepublished) {
  const std::string path = testing::TempDir() + "/watch_baseline.gam";
  WriteFile(path, "artifact-v1");
  PublishLog log;
  WatchCounts counts;
  ArtifactWatcher watcher(path, log.Fn(), 1000);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(watcher.CheckNow());
  }
  EXPECT_EQ(log.calls, 0);
  EXPECT_EQ(counts.polls(), 5u);
  EXPECT_EQ(counts.publishes(), 0u);
}

TEST(ArtifactWatcherTest, StableChangePublishesExactlyOnce) {
  const std::string path = testing::TempDir() + "/watch_stable.gam";
  WriteFile(path, "artifact-v1");
  PublishLog log;
  WatchCounts counts;
  ArtifactWatcher watcher(path, log.Fn(), 1000);
  WriteFile(path, "artifact-v2-different-size");
  // First observation of the new signature only arms the stability
  // gate.
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_EQ(log.calls, 0);
  // Second observation of the identical signature publishes.
  EXPECT_TRUE(watcher.CheckNow());
  EXPECT_EQ(log.calls, 1);
  // Published state is the new baseline: no re-publish churn.
  EXPECT_FALSE(watcher.CheckNow());
  EXPECT_EQ(log.calls, 1);
  EXPECT_EQ(counts.publishes(), 1u);
  EXPECT_EQ(counts.failures(), 0u);
}

TEST(ArtifactWatcherTest, TornWritesNeverPublishMidCopy) {
  const std::string path = testing::TempDir() + "/watch_torn.gam";
  WriteFile(path, "artifact-v1");
  PublishLog log;
  ArtifactWatcher watcher(path, log.Fn(), 1000);
  // A writer copying in chunks: the signature moves on every poll, so
  // the stability gate never opens.
  std::string grow = "v2";
  for (int i = 0; i < 6; ++i) {
    grow += "-chunk";
    WriteFile(path, grow);
    EXPECT_FALSE(watcher.CheckNow());
  }
  EXPECT_EQ(log.calls, 0);
  // Writer finishes; two quiet polls later the final state publishes.
  EXPECT_TRUE(watcher.CheckNow());
  EXPECT_EQ(log.calls, 1);
}

TEST(ArtifactWatcherTest, FailedPublishIsNotRetriedUntilTheFileChanges) {
  const std::string path = testing::TempDir() + "/watch_failed.gam";
  WriteFile(path, "artifact-v1");
  PublishLog log;
  WatchCounts counts;
  ArtifactWatcher watcher(path, log.Fn(), 1000);
  WriteFile(path, "artifact-bad-fingerprint");
  log.next = Status::InvalidArgument("fingerprint mismatch");
  EXPECT_FALSE(watcher.CheckNow());  // settle
  EXPECT_FALSE(watcher.CheckNow());  // publish attempt -> rejected
  EXPECT_EQ(log.calls, 1);
  // The bad signature is remembered: no retry storm.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(watcher.CheckNow());
  }
  EXPECT_EQ(log.calls, 1);
  EXPECT_EQ(counts.failures(), 1u);
  // A genuinely new artifact at the same path is tried again.
  WriteFile(path, "artifact-v3-fixed-and-longer");
  log.next = Status::OK();
  EXPECT_FALSE(watcher.CheckNow());  // settle
  EXPECT_TRUE(watcher.CheckNow());
  EXPECT_EQ(log.calls, 2);
  EXPECT_EQ(counts.publishes(), 1u);
}

TEST(ArtifactWatcherTest, MissingFileIsQuietUntilItAppears) {
  const std::string path = testing::TempDir() + "/watch_missing.gam";
  (void)remove(path.c_str());
  PublishLog log;
  ArtifactWatcher watcher(path, log.Fn(), 1000);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(watcher.CheckNow());
  }
  EXPECT_EQ(log.calls, 0);
  WriteFile(path, "artifact-appears");
  EXPECT_FALSE(watcher.CheckNow());  // settle
  EXPECT_TRUE(watcher.CheckNow());
  EXPECT_EQ(log.calls, 1);
}

TEST(ArtifactWatcherTest, BackgroundThreadPublishesAndStopsCleanly) {
  const std::string path = testing::TempDir() + "/watch_thread.gam";
  WriteFile(path, "artifact-v1");
  PublishLog log;
  WatchCounts counts;
  ArtifactWatcher watcher(path, log.Fn(), 5);
  watcher.Start();
  watcher.Start();  // idempotent
  WriteFile(path, "artifact-v2-for-the-thread");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counts.publishes() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(counts.publishes(), 1u);
  watcher.Stop();
  const uint64_t polls_at_stop = counts.polls();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(counts.polls(), polls_at_stop);
  watcher.Stop();  // idempotent
}

}  // namespace
}  // namespace ganc
