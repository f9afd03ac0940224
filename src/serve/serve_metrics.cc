#include "serve/serve_metrics.h"

#include <cmath>
#include <string>

#include "data/longtail.h"

namespace ganc {

namespace {

// Row payload resident at a time during the accountant's popularity
// sweep. Deliberately small and fixed: service construction must not
// widen the mapped server's RSS envelope (the scale-smoke CI job pins
// it), and the counts are budget-independent anyway.
constexpr int64_t kSweepBudgetBytes = 8 << 20;

}  // namespace

ServeInstruments ServeInstruments::Resolve(MetricsRegistry& registry) {
  ServeInstruments si;
  si.requests = registry.GetCounter(
      "serve_requests_total", "Accepted TopN requests (== hits + live).");
  si.errors = registry.GetCounter(
      "serve_request_errors_total", "Rejected or failed TopN requests.");
  si.cache_hits = registry.GetCounter(
      "serve_cache_hits_total", "Requests answered from the result cache.");
  si.cache_misses = registry.GetCounter(
      "serve_cache_misses_total", "Result-cache probes that missed.");
  si.store_hits = registry.GetCounter(
      "serve_store_hits_total",
      "Requests answered from the precomputed top-N store.");
  si.live_scored = registry.GetCounter(
      "serve_live_scored_total", "Requests answered by live scoring.");
  si.request_ns = registry.GetHistogram(
      "serve_request_ns", "End-to-end TopN latency, nanoseconds.");
  si.cache_probe_ns = registry.GetHistogram(
      "serve_cache_probe_ns", "Result-cache probe latency, nanoseconds.");
  si.store_probe_ns = registry.GetHistogram(
      "serve_store_probe_ns", "Top-N store probe latency, nanoseconds.");
  si.score_ns = registry.GetHistogram(
      "serve_score_ns",
      "Live path enqueue-to-result latency per request, nanoseconds.");
  si.kernel_ns = registry.GetHistogram(
      "serve_kernel_ns", "ScoreBatchInto latency per block, nanoseconds.");
  si.select_ns = registry.GetHistogram(
      "serve_select_ns", "Top-k selection latency per request, nanoseconds.");
  si.batches = registry.GetCounter(
      "serve_batches_total", "Scoring blocks dispatched by the batcher.");
  si.batched_requests = registry.GetCounter(
      "serve_batched_requests_total",
      "Requests processed through dispatched blocks.");
  si.full_batches = registry.GetCounter(
      "serve_full_batches_total", "Blocks dispatched at full batch_size.");
  si.waited_flushes = registry.GetCounter(
      "serve_waited_flushes_total",
      "Partial blocks flushed by the bounded-wait timer.");
  si.batch_fill = registry.GetHistogram(
      "serve_batch_fill", "Requests per dispatched scoring block.");
  return si;
}

Result<std::unique_ptr<DomainAccountant>> DomainAccountant::Create(
    const RatingDataset& train, MetricsRegistry& registry,
    uint64_t generation) {
  const size_t n_items = static_cast<size_t>(train.num_items());
  std::vector<double> pop(n_items, 0.0);
  GANC_RETURN_NOT_OK(train.SweepRowWindows(
      kSweepBudgetBytes, /*align_users=*/1, [&](const RowWindow& w) {
        for (UserId u = w.begin; u < w.end; ++u) {
          for (const ItemRating& r : train.ItemsOf(u)) {
            pop[static_cast<size_t>(r.item)] += 1.0;
          }
        }
        return Status::OK();
      }));

  std::unique_ptr<DomainAccountant> acct(new DomainAccountant());
  acct->generation_ = generation;
  // Laplace-smoothed self-information of drawing item i from the train
  // popularity distribution: −log₂((f_i + 1) / (|R| + |I|)). Smoothing
  // keeps never-rated items (popularity 0) finite — they are the most
  // novel servable items, not infinities.
  const double log_total = std::log2(
      static_cast<double>(train.num_ratings()) + static_cast<double>(n_items));
  acct->novelty_bits_.resize(n_items);
  for (size_t i = 0; i < n_items; ++i) {
    acct->novelty_bits_[i] = log_total - std::log2(pop[i] + 1.0);
  }
  const LongTailInfo tail =
      ComputeLongTailFromCounts(pop, train.num_ratings());
  acct->is_tail_ = tail.is_long_tail;

  const std::string gen = "{gen=\"" + std::to_string(generation) + "\"}";
  acct->lists_ = registry.GetCounter(
      "serve_domain_lists_total" + gen,
      "Served lists accounted by the domain metrics, per publish "
      "generation.");
  acct->slots_ = registry.GetCounter(
      "serve_domain_slots_total" + gen,
      "Recommendation slots (list items) served, per publish generation.");
  acct->novelty_bits_sum_ = registry.GetDCounter(
      "serve_domain_novelty_bits_sum" + gen,
      "Sum of per-slot novelty (-log2 smoothed popularity) bits; divide "
      "by serve_domain_slots_total for the mean.");
  acct->tail_slots_ = registry.GetCounter(
      "serve_domain_tail_slots_total" + gen,
      "Served slots filled with long-tail items.");
  acct->items_ = registry.GetDistinct(
      "serve_domain_items_distinct" + gen, n_items,
      "Distinct catalog items ever served (cumulative coverage).");
  acct->tail_items_ = registry.GetDistinct(
      "serve_domain_tail_items_distinct" + gen, n_items,
      "Distinct long-tail items ever served (long-tail coverage).");
  return acct;
}

}  // namespace ganc
