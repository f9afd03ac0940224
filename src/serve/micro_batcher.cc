#include "serve/micro_batcher.h"

#include <algorithm>
#include <utility>

#include "serve/serve_metrics.h"

namespace ganc {

MicroBatcher::MicroBatcher(BatchFn fn, MicroBatcherConfig config)
    : fn_(std::move(fn)), config_(config) {
  config_.batch_size = std::max<size_t>(config_.batch_size, 1);
  const size_t workers = std::max<size_t>(config_.num_workers, 1);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MicroBatcher::~MicroBatcher() { Shutdown(); }

Status MicroBatcher::Submit(BatchRequest& request) {
  arriving_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      arriving_.fetch_sub(1, std::memory_order_acq_rel);
      return Status::FailedPrecondition(
          "micro-batcher is shut down; request rejected");
    }
    queue_.push_back(&request);
    arriving_.fetch_sub(1, std::memory_order_acq_rel);
  }
  queue_cv_.notify_one();
  request.done.acquire();
  return request.status;
}

void MicroBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ && workers_.empty()) return;
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void MicroBatcher::WorkerLoop() {
  // One context per worker for the worker's whole lifetime — the
  // ownership contract ScoringContext enforces in debug builds.
  ScoringContext ctx;
  std::vector<BatchRequest*> batch;
  batch.reserve(config_.batch_size);
  for (;;) {
    bool waited = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      if (queue_.size() < config_.batch_size && !shutdown_ &&
          config_.max_batch_wait.count() > 0 &&
          arriving_.load(std::memory_order_acquire) > 0) {
        // Bounded-wait flush: more submitters are between Submit entry
        // and enqueue, so holding the partial block open briefly lets it
        // fill. A lone request never reaches this branch.
        waited = !queue_cv_.wait_for(lock, config_.max_batch_wait, [&] {
          return shutdown_ || queue_.size() >= config_.batch_size;
        });
      }
      batch.clear();
      while (!queue_.empty() && batch.size() < config_.batch_size) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
    }
    // Another worker may have drained the queue while this one sat in
    // the bounded wait; don't dispatch (or count) an empty block.
    if (batch.empty()) continue;
    // More work may remain queued (we popped at most one block).
    queue_cv_.notify_one();

    fn_(std::span<BatchRequest* const>(batch), ctx);

    if (const ServeInstruments* m = config_.metrics; m != nullptr) {
      m->batches->Increment();
      m->batched_requests->Increment(batch.size());
      if (batch.size() == config_.batch_size) m->full_batches->Increment();
      if (waited) m->waited_flushes->Increment();
      m->batch_fill->Observe(batch.size());
    }
    for (BatchRequest* r : batch) r->done.release();
  }
}

}  // namespace ganc
