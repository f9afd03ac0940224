// Serving-tier instrument bundles and live domain accounting.
//
// ServeInstruments resolves the serving request-path series out of a
// MetricsRegistry once per service, so the hot path touches pre-resolved
// atomic pointers only. The registry travels in ServiceConfig: a shard
// that publishes a replacement snapshot hands the same registry to the
// replacement service, which is what keeps counters monotonic across
// snapshot swaps.
//
// DomainAccountant is the paper-facing half: per served list it
// accumulates novelty (mean −log₂ popularity, Laplace-smoothed) and
// cumulative distinct-item / long-tail coverage, live, labeled by the
// shard's publish generation (`{gen="G"}`). Its popularity table and
// long-tail partition come from one budgeted row-window sweep of the
// train set, so building it neither materializes a mapped dataset nor
// inflates the mapped server's resident footprint.

#ifndef GANC_SERVE_SERVE_METRICS_H_
#define GANC_SERVE_SERVE_METRICS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "util/metrics.h"
#include "util/status.h"

namespace ganc {

/// Pre-resolved request-path instruments (one bundle per service; the
/// micro-batcher borrows a pointer to the same bundle).
struct ServeInstruments {
  // Request accounting. The identity the acceptance gate pins:
  // requests == cache_hits + store_hits + live_scored, exactly, in
  // every topology. Rejected requests count in errors only.
  Counter* requests = nullptr;
  Counter* errors = nullptr;
  Counter* cache_hits = nullptr;
  Counter* cache_misses = nullptr;
  Counter* store_hits = nullptr;
  Counter* live_scored = nullptr;

  // Stage latencies, nanoseconds.
  LatencyHistogram* request_ns = nullptr;
  LatencyHistogram* cache_probe_ns = nullptr;
  LatencyHistogram* store_probe_ns = nullptr;
  LatencyHistogram* score_ns = nullptr;   ///< live path: enqueue -> result ready
  LatencyHistogram* kernel_ns = nullptr;  ///< per block: ScoreBatchInto only
  LatencyHistogram* select_ns = nullptr;  ///< per request: top-k selection

  // Micro-batcher scheduling.
  Counter* batches = nullptr;
  Counter* batched_requests = nullptr;
  Counter* full_batches = nullptr;
  Counter* waited_flushes = nullptr;
  LatencyHistogram* batch_fill = nullptr;  ///< requests per dispatched block

  /// Registers (or re-resolves) the serving series in `registry`.
  static ServeInstruments Resolve(MetricsRegistry& registry);
};

/// Live per-snapshot novelty/coverage accounting. Thread-safe: Record
/// only touches relaxed atomics and an immutable table.
class DomainAccountant {
 public:
  /// Builds the popularity/novelty table and long-tail partition for
  /// `train` with one bounded row-window sweep (8 MiB of row payload
  /// resident at a time), then resolves the gen-labeled series in
  /// `registry`.
  static Result<std::unique_ptr<DomainAccountant>> Create(
      const RatingDataset& train, MetricsRegistry& registry,
      uint64_t generation);

  DomainAccountant(const DomainAccountant&) = delete;
  DomainAccountant& operator=(const DomainAccountant&) = delete;

  /// Accounts one served list.
  void Record(std::span<const ItemId> list) {
    lists_->Increment();
    slots_->Increment(list.size());
    double bits = 0.0;
    uint64_t tail = 0;
    for (const ItemId i : list) {
      const size_t ii = static_cast<size_t>(i);
      bits += novelty_bits_[ii];
      if (is_tail_[ii]) {
        ++tail;
        tail_items_->Mark(ii);
      }
      items_->Mark(ii);
    }
    novelty_bits_sum_->Add(bits);
    if (tail > 0) tail_slots_->Increment(tail);
  }

  /// −log₂ popularity of one item under the same Laplace smoothing the
  /// live counters use: log₂(total_ratings + num_items) − log₂(f_i + 1).
  /// Exposed so parity tests recompute offline from the same table.
  double NoveltyBits(ItemId i) const {
    return novelty_bits_[static_cast<size_t>(i)];
  }
  bool IsLongTail(ItemId i) const { return is_tail_[static_cast<size_t>(i)]; }
  uint64_t generation() const { return generation_; }

 private:
  DomainAccountant() = default;

  uint64_t generation_ = 0;
  std::vector<double> novelty_bits_;  ///< per item, Laplace-smoothed
  std::vector<bool> is_tail_;

  Counter* lists_ = nullptr;
  Counter* slots_ = nullptr;
  DCounter* novelty_bits_sum_ = nullptr;
  Counter* tail_slots_ = nullptr;
  Distinct* items_ = nullptr;
  Distinct* tail_items_ = nullptr;
};

}  // namespace ganc

#endif  // GANC_SERVE_SERVE_METRICS_H_
