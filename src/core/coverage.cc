#include "core/coverage.h"

#include <cmath>

#include "recommender/scoring_context.h"

namespace ganc {

namespace {

// Rand's stateless hash -> uniform: the SplitMix64 finalizer over
// (seed, u, i), with the (seed, u) part passed in pre-mixed.
double RandUniform(uint64_t seed_and_user, ItemId i) {
  uint64_t z =
      seed_and_user ^ (static_cast<uint64_t>(i) + 0xBF58476D1CE4E5B9ULL);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

uint64_t RandSeedAndUser(uint64_t seed, UserId u) {
  return seed ^ (static_cast<uint64_t>(u) * 0x9E3779B97F4A7C15ULL);
}

}  // namespace

double RandCoverage::Score(UserId u, ItemId i) const {
  return RandUniform(RandSeedAndUser(seed_, u), i);
}

std::span<const double> RandCoverage::Row(UserId u,
                                          ScoringContext& ctx) const {
  const std::span<double> row =
      ctx.Buffer(1, static_cast<size_t>(num_items_));
  const uint64_t seed_and_user = RandSeedAndUser(seed_, u);
  for (size_t i = 0; i < row.size(); ++i) {
    row[i] = RandUniform(seed_and_user, static_cast<ItemId>(i));
  }
  return row;
}

StatCoverage::StatCoverage(const RatingDataset& train)
    : score_(train.PopularityVector()) {
  // PopularityVector holds the exact counts, so this matches the CSC
  // column lengths bit for bit without needing residency.
  for (double& s : score_) s = 1.0 / std::sqrt(s + 1.0);
}

double StatCoverage::Score(UserId /*u*/, ItemId i) const {
  return score_[static_cast<size_t>(i)];
}

DynScoreTable::DynScoreTable() {
  for (uint32_t f = 0; f < kSize; ++f) table_[f] = Formula(f);
}

const DynScoreTable& DynScoreTable::Get() {
  static const DynScoreTable table;
  return table;
}

void DynCoverage::SetCounts(std::vector<uint32_t> counts) {
  counts_ = std::move(counts);
  values_.resize(counts_.size());
  const DynScoreTable& table = DynScoreTable::Get();
  for (size_t i = 0; i < counts_.size(); ++i) {
    values_[i] = table.Score(counts_[i]);
  }
}

std::string CoverageKindName(CoverageKind kind) {
  switch (kind) {
    case CoverageKind::kRand:
      return "Rand";
    case CoverageKind::kStat:
      return "Stat";
    case CoverageKind::kDyn:
      return "Dyn";
  }
  return "?";
}

std::unique_ptr<CoverageModel> MakeCoverage(CoverageKind kind,
                                            const RatingDataset& train,
                                            uint64_t seed) {
  switch (kind) {
    case CoverageKind::kRand:
      return std::make_unique<RandCoverage>(train.num_items(), seed);
    case CoverageKind::kStat:
      return std::make_unique<StatCoverage>(train);
    case CoverageKind::kDyn:
      return std::make_unique<DynCoverage>(train.num_items());
  }
  return nullptr;
}

}  // namespace ganc
