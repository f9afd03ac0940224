// MicroBatcher: batch formation under concurrency, the bounded-wait
// flush (a lone request is dispatched immediately), shutdown draining,
// and result integrity when many callers share the queue.

#include "serve/micro_batcher.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serve_metrics.h"
#include "util/metrics.h"

namespace ganc {
namespace {

// A private registry the batcher counts into, read back by series name.
struct BatchMetrics {
  MetricsRegistry registry;
  ServeInstruments instruments = ServeInstruments::Resolve(registry);

  uint64_t Count(const std::string& name) const {
    return registry.Snapshot().CounterValue(name);
  }
};

// A batch function that "scores" by echoing user * 10 + n and records
// the block sizes it saw.
struct EchoBatchFn {
  std::vector<size_t>* batch_sizes = nullptr;
  std::mutex* mu = nullptr;

  void operator()(std::span<BatchRequest* const> batch,
                  ScoringContext& /*ctx*/) const {
    if (batch_sizes != nullptr) {
      std::lock_guard<std::mutex> lock(*mu);
      batch_sizes->push_back(batch.size());
    }
    for (BatchRequest* r : batch) {
      r->out->assign(1, static_cast<ItemId>(r->user * 10 + r->n));
    }
  }
};

TEST(MicroBatcherTest, SingleRequestRoundTrip) {
  BatchMetrics metrics;
  MicroBatcherConfig config;
  config.metrics = &metrics.instruments;
  MicroBatcher batcher(EchoBatchFn{}, config);
  BatchRequest req;
  req.user = 7;
  req.n = 3;
  std::vector<ItemId> out;
  req.out = &out;
  ASSERT_TRUE(batcher.Submit(req).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 73);
  EXPECT_EQ(metrics.Count("serve_batched_requests_total"), 1u);
  EXPECT_EQ(metrics.Count("serve_batches_total"), 1u);
}

TEST(MicroBatcherTest, LoneRequestIsNotStalledByTheFlushTimer) {
  MicroBatcherConfig config;
  config.batch_size = 8;
  // A pathological timer: if a lone request waited for the flush
  // deadline the test would take half a second per request.
  config.max_batch_wait = std::chrono::microseconds(500000);
  BatchMetrics metrics;
  config.metrics = &metrics.instruments;
  MicroBatcher batcher(EchoBatchFn{}, config);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    BatchRequest req;
    req.user = i;
    req.n = 1;
    std::vector<ItemId> out;
    req.out = &out;
    ASSERT_TRUE(batcher.Submit(req).ok());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            500);
  EXPECT_EQ(metrics.Count("serve_waited_flushes_total"), 0u);
}

TEST(MicroBatcherTest, ConcurrentCallersFormBatchesAndGetOwnResults) {
  std::vector<size_t> batch_sizes;
  std::mutex mu;
  MicroBatcherConfig config;
  config.num_workers = 2;
  config.batch_size = 8;
  BatchMetrics metrics;
  config.metrics = &metrics.instruments;
  MicroBatcher batcher(EchoBatchFn{&batch_sizes, &mu}, config);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&batcher, &mismatches, t] {
      for (int i = 0; i < kPerThread; ++i) {
        BatchRequest req;
        req.user = t * 1000 + i;
        req.n = 4;
        std::vector<ItemId> out;
        req.out = &out;
        if (!batcher.Submit(req).ok() || out.size() != 1 ||
            out[0] != req.user * 10 + 4) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const uint64_t requests = metrics.Count("serve_batched_requests_total");
  EXPECT_EQ(requests, static_cast<uint64_t>(kThreads * kPerThread));
  // Batching must actually happen: fewer dispatches than requests.
  EXPECT_LT(metrics.Count("serve_batches_total"), requests);
  size_t max_fill = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const size_t s : batch_sizes) max_fill = std::max(max_fill, s);
  }
  EXPECT_GT(max_fill, 1u);
  EXPECT_LE(max_fill, 8u);
}

TEST(MicroBatcherTest, NeverExceedsBatchSizeOne) {
  std::vector<size_t> batch_sizes;
  std::mutex mu;
  MicroBatcherConfig config;
  config.batch_size = 1;
  MicroBatcher batcher(EchoBatchFn{&batch_sizes, &mu}, config);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&batcher] {
      for (int i = 0; i < 50; ++i) {
        BatchRequest req;
        req.user = i;
        req.n = 1;
        std::vector<ItemId> out;
        req.out = &out;
        ASSERT_TRUE(batcher.Submit(req).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::lock_guard<std::mutex> lock(mu);
  for (const size_t s : batch_sizes) EXPECT_EQ(s, 1u);
}

TEST(MicroBatcherTest, SubmitAfterShutdownIsRejected) {
  MicroBatcher batcher(EchoBatchFn{}, {});
  batcher.Shutdown();
  BatchRequest req;
  req.user = 1;
  req.n = 1;
  std::vector<ItemId> out;
  req.out = &out;
  const Status s = batcher.Submit(req);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(MicroBatcherTest, BatchFnStatusPropagatesToTheCaller) {
  MicroBatcher batcher(
      [](std::span<BatchRequest* const> batch, ScoringContext&) {
        for (BatchRequest* r : batch) {
          r->status = Status::InvalidArgument("boom");
        }
      },
      {});
  BatchRequest req;
  req.user = 1;
  req.n = 1;
  std::vector<ItemId> out;
  req.out = &out;
  const Status s = batcher.Submit(req);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "boom");
}

}  // namespace
}  // namespace ganc
