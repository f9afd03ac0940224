// Coverage recommenders for GANC (Section III-B).
//
//   Rand  c(u, i) ~ U(0, 1)            maximal-coverage control
//   Stat  c(i) = 1 / sqrt(f_i^R + 1)   static long-tail promotion
//   Dyn   c(i) = 1 / sqrt(f_i^A + 1)   diminishing-returns promotion based
//                                      on the recommendations made so far
//
// Dyn is the submodularity-inducing component: every time an item is
// recommended its future coverage gain shrinks, so OSLG steers later
// (higher-theta) users toward still-uncovered items.

#ifndef GANC_CORE_COVERAGE_H_
#define GANC_CORE_COVERAGE_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace ganc {

/// Coverage score provider c(u, i) in [0, 1].
class CoverageModel {
 public:
  virtual ~CoverageModel() = default;

  /// Coverage score of item i for user u.
  virtual double Score(UserId u, ItemId i) const = 0;

  /// Notifies the model that `i` was just recommended (no-op unless Dyn).
  virtual void Observe(ItemId /*i*/) {}

  /// True when Observe changes future scores (couples users' optima).
  virtual bool IsDynamic() const { return false; }

  /// The running counts f^A when c(u, i) = DynScoreTable::Score(f^A_i)
  /// (Dyn and its snapshot view), empty otherwise. The greedy asks once
  /// per user and then scores every candidate inline, without a virtual
  /// call per candidate.
  virtual std::span<const uint32_t> DynCounts() const { return {}; }

  virtual std::string name() const = 0;
};

/// Rand: uniform per (seed, user, item), deterministic and thread-safe.
class RandCoverage : public CoverageModel {
 public:
  RandCoverage(int32_t num_items, uint64_t seed)
      : num_items_(num_items), seed_(seed) {}

  double Score(UserId u, ItemId i) const override;
  std::string name() const override { return "Rand"; }

 private:
  int32_t num_items_;
  uint64_t seed_;
};

/// Stat: monotone decreasing in train popularity; constant gain.
class StatCoverage : public CoverageModel {
 public:
  explicit StatCoverage(const RatingDataset& train);

  double Score(UserId u, ItemId i) const override;
  std::string name() const override { return "Stat"; }

 private:
  std::vector<double> score_;  // 1 / sqrt(f_i^R + 1)
};

/// Dyn's coverage gain 1 / sqrt(f + 1) at running count f. Counts below
/// kSize read a table filled with that same expression, so a count maps
/// to the same bits through the table or the expression. Larger counts,
/// an item recommended to more than kSize users in one sequential pass,
/// evaluate it.
class DynScoreTable {
 public:
  static constexpr uint32_t kSize = 1024;

  static double Formula(uint32_t f) {
    return 1.0 / std::sqrt(static_cast<double>(f) + 1.0);
  }

  /// The process-wide table.
  static const DynScoreTable& Get();

  double Score(uint32_t f) const {
    return f < kSize ? table_[f] : Formula(f);
  }

 private:
  DynScoreTable();

  std::array<double, kSize> table_;
};

/// Dyn: decreasing in the running recommendation frequency f_i^A.
class DynCoverage : public CoverageModel {
 public:
  explicit DynCoverage(int32_t num_items)
      : counts_(static_cast<size_t>(num_items), 0) {}

  double Score(UserId u, ItemId i) const override;
  void Observe(ItemId i) override {
    ++counts_[static_cast<size_t>(i)];
  }
  bool IsDynamic() const override { return true; }
  std::span<const uint32_t> DynCounts() const override { return counts_; }
  std::string name() const override { return "Dyn"; }

  /// Running recommendation frequencies f^A (the OSLG snapshot payload).
  const std::vector<uint32_t>& counts() const { return counts_; }
  void SetCounts(std::vector<uint32_t> counts) { counts_ = std::move(counts); }

 private:
  std::vector<uint32_t> counts_;
};

/// Read-only Dyn scoring over borrowed counts. OSLG's parallel phase
/// scores every out-of-sample user against the snapshot of their
/// nearest-theta sampled user; this view does it without copying the
/// count vector per user (the snapshot is never mutated there).
class DynSnapshotView : public CoverageModel {
 public:
  explicit DynSnapshotView(std::span<const uint32_t> counts)
      : counts_(counts) {}

  double Score(UserId /*u*/, ItemId i) const override {
    return DynScoreTable::Get().Score(counts_[static_cast<size_t>(i)]);
  }
  std::span<const uint32_t> DynCounts() const override { return counts_; }
  std::string name() const override { return "Dyn"; }

 private:
  std::span<const uint32_t> counts_;
};

/// Which coverage recommender a GANC variant uses.
enum class CoverageKind { kRand, kStat, kDyn };

/// Human-readable name ("Rand"/"Stat"/"Dyn").
std::string CoverageKindName(CoverageKind kind);

/// Factory for the chosen kind.
std::unique_ptr<CoverageModel> MakeCoverage(CoverageKind kind,
                                            const RatingDataset& train,
                                            uint64_t seed);

}  // namespace ganc

#endif  // GANC_CORE_COVERAGE_H_
