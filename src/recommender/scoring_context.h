// Reusable per-thread scratch for the batched, allocation-free scoring
// path. Every hot loop that used to heap-allocate a catalog-sized score
// vector per user (Recommender::ScoreAll, top-N selection, GANC's greedy,
// the re-rankers) instead borrows buffers from a ScoringContext that is
// created once per worker thread and amortizes all allocations across the
// users the worker processes.
//
// A ScoringContext is NOT thread-safe; create one per thread (the chunked
// parallel loops in recommender.cc / ganc.cc and the serving scheduler's
// workers do exactly that). Ownership is one-thread-for-life: the context
// binds to the first thread that borrows a buffer, and debug builds abort
// when any other thread touches it afterwards — handing a context between
// threads, even with external synchronization, is a contract violation
// (see Recommender scoring contract in recommender.h). Buffer contents
// are undefined between calls — every consumer must fully overwrite what
// it reads.
//
// Slot conventions used by the framework (callers layering their own use
// on top must avoid these while a framework call is in flight):
//   Scores()  == Buffer(0)  dense per-item scores (RecommendTopNInto)
//   Buffer(1)               a per-user coverage row (CoverageModel::Row)
//   TopK()                  heap/output of the top-k selection kernels
//   Flags()                 the rated/excluded mask of the unrated-items
//                           selection kernels (zeroed between calls)
//   Candidates() == Items(0) candidate item ids (UnratedItemsInto target)

#ifndef GANC_RECOMMENDER_SCORING_CONTEXT_H_
#define GANC_RECOMMENDER_SCORING_CONTEXT_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "util/aligned.h"
#include "util/stats.h"
#include "util/top_k.h"

namespace ganc {

/// Owns the reusable score/candidate/top-k buffers of one worker thread.
class ScoringContext {
 public:
  ScoringContext() = default;

  ScoringContext(const ScoringContext&) = delete;
  ScoringContext& operator=(const ScoringContext&) = delete;

  /// The primary dense score buffer, resized to `n` items.
  std::span<double> Scores(size_t n) { return Buffer(0, n); }

  /// A numbered double scratch buffer of exactly `n` entries. Slots are
  /// independent; capacity is retained across calls.
  std::span<double> Buffer(size_t slot, size_t n);

  /// The primary candidate-id buffer (UnratedItemsInto target).
  std::vector<ItemId>& Candidates() { return Items(0); }

  /// A numbered item-id scratch vector (cleared by the consumer). The
  /// reference stays valid for the context's lifetime: asking for a
  /// higher slot never moves a lower one.
  std::vector<ItemId>& Items(size_t slot);

  /// The batch-major score buffer of the blocked scoring path, resized to
  /// `n` (= batch size * num_items) entries. Distinct from every numbered
  /// Buffer slot so consumers can keep per-user scratch live while a
  /// score block is in flight.
  std::span<double> BatchScores(size_t n);

  /// The user-id list the contiguous ForEachScoredUser variant scores
  /// through (capacity reused across blocks).
  std::vector<UserId>& BatchUsers() {
    CheckOwner();
    return batch_users_;
  }

  /// Per-row scales of a scale-deferred score block
  /// (AccuracyScorer::ScoreBatchScaledInto), capacity reused.
  std::vector<RowScale>& RowScales() {
    CheckOwner();
    return row_scales_;
  }

  /// Working scratch / output of the top-k selection kernels.
  std::vector<ScoredItem>& TopK() {
    CheckOwner();
    return top_k_;
  }

  /// Reusable byte flags (e.g. "already taken" marks in MMR).
  std::vector<uint8_t>& Flags() {
    CheckOwner();
    return flags_;
  }

  /// Reusable index scratch (argsort orders, rank permutations).
  std::vector<size_t>& Indices() {
    CheckOwner();
    return indices_;
  }

 private:
  /// Debug-only enforcement of the one-thread-for-life ownership rule:
  /// the first accessor call binds the context to the calling thread and
  /// any later access from a different thread aborts. Compiled out in
  /// release builds (zero cost on the hot path).
  void CheckOwner() {
#ifndef NDEBUG
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id unowned{};
    if (!owner_.compare_exchange_strong(unowned, self,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      assert(unowned == self &&
             "ScoringContext borrowed from a second thread: contexts are "
             "one-per-worker, create a new one instead of sharing");
      (void)self;
    }
#endif
  }

  friend class ScoringContextOwnershipTestPeer;

  // Score buffers are 64-byte aligned so the SIMD scoring kernels (and
  // anything else walking them with vector loads) start on a cache-line
  // boundary regardless of allocator behavior.
  std::vector<AlignedVector<double>> buffers_;
  AlignedVector<double> batch_scores_;
  std::vector<UserId> batch_users_;
  std::vector<RowScale> row_scales_;
  std::vector<ScoredItem> top_k_;
  std::vector<uint8_t> flags_;
  std::vector<size_t> indices_;
  // A deque, so growing it for a new slot keeps every earlier slot's
  // address (callers hold Items(1) while asking for Items(2)).
  std::deque<std::vector<ItemId>> items_;
  // Present in every build so the class layout does not depend on
  // NDEBUG (mixed-mode linking stays safe); only read in debug.
  std::atomic<std::thread::id> owner_{};
};

}  // namespace ganc

#endif  // GANC_RECOMMENDER_SCORING_CONTEXT_H_
