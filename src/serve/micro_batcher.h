// Request micro-batching scheduler for the online serving path.
//
// The offline engine earns its throughput from ScoreBatchInto: the
// FactorScoringEngine kernel streams each item-factor row through 8
// independent per-user accumulator chains, roughly halving per-user cost
// versus one-user scoring. A serving frontend answers one request at a
// time, which would waste that kernel — so concurrent callers enqueue
// here and worker threads drain the queue in blocks of up to
// `batch_size` (default: the engine's 8-user register block), scoring a
// whole block through one ScoreBatchInto call.
//
// Flush policy (the "bounded-wait flush"): a worker that finds fewer
// than `batch_size` queued requests waits at most `max_batch_wait` for
// the block to fill — and only when more submitters are already on
// their way (observable as callers between Submit entry and enqueue).
// A lone request in an idle system is therefore dispatched immediately,
// never stalled behind a timer; under load the wait is bounded by
// `max_batch_wait`.
//
// Determinism: ScoreBatchInto is bit-identical to per-user ScoreInto for
// every batch composition (pinned by the scoring parity suite), and the
// batch function runs per-request selection independently, so the
// response to a request does not depend on which requests it happened
// to share a block with — the parity guarantee the serving tests pin.
//
// Each worker owns one ScoringContext for its whole lifetime
// (one-context-per-worker; see scoring_context.h — debug builds abort on
// cross-thread reuse).

#ifndef GANC_SERVE_MICRO_BATCHER_H_
#define GANC_SERVE_MICRO_BATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <semaphore>
#include <span>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "recommender/scoring_context.h"
#include "util/status.h"

namespace ganc {

struct RequestTrace;
struct ServeInstruments;

/// One in-flight request. The caller owns the storage (stack-allocated
/// in Submit's caller), the batch function fills `*out` / `status`, and
/// `done` hands the result back; `exclusions` is borrowed and must stay
/// valid until Submit returns.
struct BatchRequest {
  UserId user = 0;
  int n = 0;
  std::span<const ItemId> exclusions;
  std::vector<ItemId>* out = nullptr;
  /// Sampled trace to stamp scoring stages on (null = unsampled).
  /// Borrowed; valid until `done` is released.
  RequestTrace* trace = nullptr;
  Status status;
  std::binary_semaphore done{0};
};

/// Scheduler knobs.
struct MicroBatcherConfig {
  /// Scoring worker threads draining the queue.
  size_t num_workers = 1;
  /// Requests per block; clamped to >= 1. The serving default is the
  /// FactorScoringEngine register block (kScoreBatch).
  size_t batch_size = 8;
  /// Upper bound on how long a worker holds a partial block open for
  /// more requests (only when more are provably on their way).
  std::chrono::microseconds max_batch_wait{200};
  /// Pre-resolved scheduling instruments the batcher counts into
  /// (borrowed, may be null; must outlive the batcher).
  const ServeInstruments* metrics = nullptr;
};

/// Bounded-wait request micro-batcher. The batch function receives up to
/// `batch_size` requests plus the worker's own ScoringContext and must
/// fill every request's `out`/`status` before returning.
class MicroBatcher {
 public:
  using BatchFn =
      std::function<void(std::span<BatchRequest* const>, ScoringContext&)>;

  MicroBatcher(BatchFn fn, MicroBatcherConfig config);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues `request` and blocks until a worker has processed it.
  /// Returns the request's status (FailedPrecondition after Shutdown).
  Status Submit(BatchRequest& request);

  /// Drains the queue and joins the workers. Idempotent; called by the
  /// destructor.
  void Shutdown();

  size_t num_workers() const { return workers_.size(); }
  size_t batch_size() const { return config_.batch_size; }

 private:
  void WorkerLoop();

  BatchFn fn_;
  MicroBatcherConfig config_;

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<BatchRequest*> queue_;
  bool shutdown_ = false;
  /// Callers between Submit entry and enqueue — the "more requests are
  /// on their way" signal the bounded wait keys on.
  std::atomic<size_t> arriving_{0};

  std::vector<std::thread> workers_;
};

}  // namespace ganc

#endif  // GANC_SERVE_MICRO_BATCHER_H_
