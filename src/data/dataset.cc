#include "data/dataset.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/binary_io.h"
#include "util/metrics.h"
#include "util/mmap_region.h"
#include "util/serialize.h"

namespace ganc {

namespace {

// Dataset cache section ids (kind kDatasetCache; see docs/FORMATS.md).
// Ids 3 and 4 held format v2's split item/value arrays: never reuse them.
constexpr uint32_t kCacheDimsSection = 1;
constexpr uint32_t kCacheOffsetsSection = 2;
constexpr uint32_t kCacheOrderSection = 5;
constexpr uint32_t kCacheRowsSection = 6;
constexpr uint32_t kCacheFingerprintSection = 7;

Status ValidateOffsets(std::span<const uint64_t> offsets, int32_t num_users,
                       int32_t num_items, uint64_t nnz) {
  if (offsets.size() != static_cast<size_t>(num_users) + 1) {
    return Status::InvalidArgument("dataset cache section sizes disagree");
  }
  if (offsets.front() != 0 || offsets.back() != nnz) {
    return Status::InvalidArgument("dataset cache row offsets malformed");
  }
  for (size_t u = 0; u + 1 < offsets.size(); ++u) {
    if (offsets[u] > offsets[u + 1]) {
      return Status::InvalidArgument("dataset cache row offsets not sorted");
    }
    if (offsets[u + 1] - offsets[u] > static_cast<uint64_t>(num_items)) {
      return Status::InvalidArgument(
          "dataset cache row longer than the item universe");
    }
  }
  return Status::OK();
}

}  // namespace

struct RatingDataset::ArtifactState {
  std::shared_ptr<const ArtifactBytes> bytes;
  std::once_flag once;
  Status status;
  /// Rows of users < this watermark passed ValidateRowRange. Sweeps
  /// advance it in user order so one full pass validates everything;
  /// later sweeps skip re-validation.
  std::atomic<UserId> rows_validated_until{0};
};

RatingDataset::RatingDataset() = default;
RatingDataset::~RatingDataset() = default;
RatingDataset::RatingDataset(RatingDataset&&) noexcept = default;
RatingDataset& RatingDataset::operator=(RatingDataset&&) noexcept = default;

void RatingDataset::BindOwnedViews() {
  user_offsets_view_ = user_offsets_;
  rows_view_ = user_rows_;
  order_view_ = {};
}

double RatingDataset::Density() const {
  if (num_users_ == 0 || num_items_ == 0) return 0.0;
  return static_cast<double>(nnz_) /
         (static_cast<double>(num_users_) * static_cast<double>(num_items_));
}

std::vector<double> RatingDataset::PopularityVector() const {
  // Counting sweep over the CSR rows: exact integer counts, identical
  // to the CSC column lengths, and mapped-safe under the train budget.
  std::vector<double> pop(static_cast<size_t>(num_items_), 0.0);
  const Status swept =
      SweepRowWindows(train_budget_bytes_, 1, [&](const RowWindow& w) {
        for (UserId u = w.begin; u < w.end; ++u) {
          for (const ItemRating& ir : ItemsOf(u)) {
            pop[static_cast<size_t>(ir.item)] += 1.0;
          }
        }
        return Status::OK();
      });
  (void)swept;  // row validation errors surface via EnsureResident/Fit
  return pop;
}

bool RatingDataset::HasRating(UserId u, ItemId i) const {
  const auto row = ItemsOf(u);
  auto it = std::lower_bound(
      row.begin(), row.end(), i,
      [](const ItemRating& ir, ItemId target) { return ir.item < target; });
  return it != row.end() && it->item == i;
}

Result<float> RatingDataset::GetRating(UserId u, ItemId i) const {
  const auto row = ItemsOf(u);
  auto it = std::lower_bound(
      row.begin(), row.end(), i,
      [](const ItemRating& ir, ItemId target) { return ir.item < target; });
  if (it == row.end() || it->item != i) {
    return Status::NotFound("rating (" + std::to_string(u) + ", " +
                            std::to_string(i) + ") not observed");
  }
  return it->value;
}

double RatingDataset::GlobalMeanRating() const {
  // Budgeted row sweep in CSR order. One running accumulator crosses
  // window boundaries, so the summation order — and therefore the fp64
  // result — is the same for every budget and for eager datasets with a
  // user-major observation order (the cache writers' canonical order).
  if (nnz_ == 0) return 0.0;
  double acc = 0.0;
  const Status swept =
      SweepRowWindows(train_budget_bytes_, 1, [&](const RowWindow& w) {
        for (UserId u = w.begin; u < w.end; ++u) {
          for (const ItemRating& ir : ItemsOf(u)) {
            acc += ir.value;
          }
        }
        return Status::OK();
      });
  (void)swept;
  return acc / static_cast<double>(nnz_);
}

std::vector<ItemId> RatingDataset::UnratedItems(UserId u) const {
  std::vector<ItemId> out;
  UnratedItemsInto(u, &out);
  return out;
}

void RatingDataset::UnratedItemsInto(UserId u,
                                     std::vector<ItemId>* out) const {
  // The user row is sorted by item id, so the unrated set is the gaps
  // between consecutive rated items: fill each run of ids directly
  // instead of testing every catalog item against the row cursor.
  const auto row = ItemsOf(u);
  out->resize(static_cast<size_t>(num_items_) - row.size());
  ItemId* dst = out->data();
  ItemId next = 0;
  for (const ItemRating& ir : row) {
    for (ItemId i = next; i < ir.item; ++i) *dst++ = i;
    next = ir.item + 1;
  }
  for (ItemId i = next; i < num_items_; ++i) *dst++ = i;
}

uint64_t RatingDataset::Fingerprint() const {
  if (fingerprint_ != 0) return fingerprint_;
  Fnv1aHasher hasher;
  const auto hash_u32 = [&](uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    hasher.Update(b, sizeof(b));
  };
  hash_u32(static_cast<uint32_t>(num_users_));
  hash_u32(static_cast<uint32_t>(num_items_));
  for (UserId u = 0; u < num_users_; ++u) {
    const auto row = ItemsOf(u);
    hash_u32(static_cast<uint32_t>(row.size()));
    for (const ItemRating& ir : row) {
      hash_u32(static_cast<uint32_t>(ir.item));
      hash_u32(std::bit_cast<uint32_t>(ir.value));
    }
  }
  return hasher.digest();
}

Status RatingDataset::ValidateRowRange(UserId begin, UserId end) const {
  for (UserId u = begin; u < end; ++u) {
    const auto row = ItemsOf(u);
    for (size_t k = 0; k < row.size(); ++k) {
      if (row[k].item < 0 || row[k].item >= num_items_) {
        return Status::InvalidArgument("item id out of range in dataset cache");
      }
      if (k > 0 && row[k].item <= row[k - 1].item) {
        return Status::InvalidArgument(
            "dataset cache rows must be strictly item-ascending");
      }
    }
  }
  return Status::OK();
}

std::vector<RowWindow> RatingDataset::PlanRowWindows(
    int64_t budget_bytes, int32_t align_users) const {
  std::vector<RowWindow> windows;
  if (num_users_ == 0) return windows;
  const int32_t block = std::max<int32_t>(align_users, 1);
  const int64_t capacity_rows =
      budget_bytes > 0 ? std::max<int64_t>(
                             budget_bytes / static_cast<int64_t>(
                                                sizeof(ItemRating)),
                             1)
                       : nnz_;
  const auto row_count = [this](UserId lo, UserId hi) {
    return static_cast<int64_t>(user_offsets_view_[static_cast<size_t>(hi)] -
                                user_offsets_view_[static_cast<size_t>(lo)]);
  };
  RowWindow current{0, 0, 0};
  for (UserId u = 0; u < num_users_; u += block) {
    const UserId next = std::min<UserId>(u + block, num_users_);
    const int64_t block_nnz = row_count(u, next);
    if (current.end > current.begin &&
        current.nnz + block_nnz > capacity_rows) {
      windows.push_back(current);
      current = {u, u, 0};
    }
    current.end = next;
    current.nnz += block_nnz;
  }
  windows.push_back(current);
  return windows;
}

Status RatingDataset::SweepRowWindows(
    int64_t budget_bytes, int32_t align_users,
    const std::function<Status(const RowWindow&)>& fn) const {
  // Sweep accounting: one resolve per process, relaxed increments per
  // window — negligible against the O(rows) work each window does.
  static Counter* const sweep_windows = MetricsRegistry::Global().GetCounter(
      "data_sweep_windows_total",
      "Budgeted row windows visited by dataset sweeps.");
  static Counter* const sweep_rows = MetricsRegistry::Global().GetCounter(
      "data_sweep_rows_total", "Ratings visited by dataset row sweeps.");
  const bool loaded = artifact_ != nullptr;
  const bool mapped = loaded && artifact_->bytes->is_mapping();
  for (const RowWindow& w : PlanRowWindows(budget_bytes, align_users)) {
    sweep_windows->Increment();
    sweep_rows->Increment(static_cast<uint64_t>(w.nnz));
    if (loaded) {
      // First full pass doubles as the deferred row validation; the
      // watermark only ever advances front-to-back, so a later sweep
      // (or EnsureResident) never re-checks.
      const UserId seen = artifact_->rows_validated_until.load();
      if (seen < w.end) {
        GANC_RETURN_NOT_OK(ValidateRowRange(std::max(seen, w.begin), w.end));
        if (w.begin <= seen) artifact_->rows_validated_until.store(w.end);
      }
    }
    const Status st = fn(w);
    if (mapped && w.nnz > 0) {
      const size_t first =
          static_cast<size_t>(user_offsets_view_[static_cast<size_t>(w.begin)]);
      ReleaseMappedPages(rows_view_.data() + first,
                         static_cast<size_t>(w.nnz) * sizeof(ItemRating));
    }
    GANC_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Status RatingDataset::ValidateRowsAndIndex() const {
  // O(nnz) structural checks a loaded dataset defers to first resident
  // use: rows strictly item-ascending and in range, observation order a
  // permutation.
  GANC_RETURN_NOT_OK(ValidateRowRange(0, num_users_));
  artifact_->rows_validated_until.store(num_users_);
  const size_t nnz = static_cast<size_t>(nnz_);
  if (!order_view_.empty()) {
    std::vector<bool> seen(nnz, false);
    for (uint64_t idx : order_view_) {
      if (idx >= nnz || seen[idx]) {
        return Status::InvalidArgument(
            "dataset cache observation order is not a permutation");
      }
      seen[idx] = true;
    }
  }

  // CSC item index: walking users ascending yields user-ascending
  // audiences without a sort.
  item_offsets_.assign(static_cast<size_t>(num_items_) + 1, 0);
  for (const ItemRating& ir : rows_view_) {
    ++item_offsets_[static_cast<size_t>(ir.item) + 1];
  }
  for (size_t i = 1; i < item_offsets_.size(); ++i) {
    item_offsets_[i] += item_offsets_[i - 1];
  }
  item_cols_.resize(nnz);
  std::vector<uint64_t> cursor(item_offsets_.begin(), item_offsets_.end() - 1);
  ratings_.resize(nnz);
  for (UserId u = 0; u < num_users_; ++u) {
    const size_t begin = static_cast<size_t>(user_offsets_view_[u]);
    const auto row = ItemsOf(u);
    for (size_t k = 0; k < row.size(); ++k) {
      const ItemRating& ir = row[k];
      item_cols_[cursor[static_cast<size_t>(ir.item)]++] = {u, ir.value};
      const size_t p = begin + k;
      const size_t idx = order_view_.empty() ? p : order_view_[p];
      ratings_[idx] = {u, ir.item, ir.value};
    }
  }
  return Status::OK();
}

bool RatingDataset::IsMapped() const {
  return artifact_ != nullptr && artifact_->bytes->is_mapping();
}

Status RatingDataset::EnsureResident() const {
  if (artifact_ == nullptr) return Status::OK();
  std::call_once(artifact_->once,
                 [this] { artifact_->status = ValidateRowsAndIndex(); });
  return artifact_->status;
}

Status RatingDataset::SaveBinary(std::ostream& os) const {
  // The observation-order section needs ratings(); a loaded dataset
  // must materialize (and thereby fully validate) before re-saving.
  GANC_RETURN_NOT_OK(EnsureResident());
  ArtifactWriter w(os);
  GANC_RETURN_NOT_OK(w.WriteHeader(ArtifactKind::kDatasetCache, 0));

  PayloadWriter dims;
  dims.WriteI32(num_users_);
  dims.WriteI32(num_items_);
  dims.WriteI64(nnz_);
  GANC_RETURN_NOT_OK(w.WriteSection(kCacheDimsSection, dims));

  const size_t nnz = static_cast<size_t>(nnz_);
  PayloadWriter offsets_payload;
  {
    std::vector<uint64_t> offsets(user_offsets_view_.begin(),
                                  user_offsets_view_.end());
    offsets_payload.WriteVecU64(offsets);
  }
  GANC_RETURN_NOT_OK(w.WriteSection(kCacheOffsetsSection, offsets_payload));

  PayloadWriter rows_payload;
  rows_payload.WriteVecRaw(rows_view_.data(), rows_view_.size());
  GANC_RETURN_NOT_OK(w.WriteSection(kCacheRowsSection, rows_payload));

  // Observation-order section: maps each CSR position to its index in
  // ratings_ so the loaded dataset reproduces the original insertion
  // order exactly (seeded splits and SGD epochs depend on it). An
  // identity permutation (user-major sources like the synthetic
  // streamer) is stored as an empty vector.
  std::vector<uint64_t> order(nnz);
  for (size_t idx = 0; idx < nnz; ++idx) {
    const Rating& r = ratings_[idx];
    const auto row = ItemsOf(r.user);
    const auto it = std::lower_bound(
        row.begin(), row.end(), r.item,
        [](const ItemRating& ir, ItemId target) { return ir.item < target; });
    const size_t rank = static_cast<size_t>(it - row.begin());
    order[static_cast<size_t>(user_offsets_view_[r.user]) + rank] = idx;
  }
  bool identity = true;
  for (size_t p = 0; p < nnz && identity; ++p) identity = order[p] == p;
  if (identity) order.clear();
  PayloadWriter order_payload;
  order_payload.WriteVecU64(order);
  GANC_RETURN_NOT_OK(w.WriteSection(kCacheOrderSection, order_payload));

  PayloadWriter fingerprint_payload;
  fingerprint_payload.WriteU64(Fingerprint());
  GANC_RETURN_NOT_OK(
      w.WriteSection(kCacheFingerprintSection, fingerprint_payload));
  return w.Finish();
}

Status RatingDataset::SaveBinaryFile(const std::string& path) const {
  return WriteArtifactFile(
      path, [&](std::ostream& os) { return SaveBinary(os); });
}

// Owns the ArtifactWriter so dataset.h need not include serialize.h.
class DatasetCacheStreamWriter::ArtifactWriterHolder {
 public:
  explicit ArtifactWriterHolder(std::ostream& os) : writer(os) {}
  ArtifactWriter writer;
};

DatasetCacheStreamWriter::~DatasetCacheStreamWriter() = default;

DatasetCacheStreamWriter::DatasetCacheStreamWriter(
    std::ostream& os, int32_t num_users, int32_t num_items,
    std::vector<uint64_t> row_counts)
    : num_users_(num_users),
      num_items_(num_items),
      row_counts_(std::move(row_counts)),
      writer_(std::make_unique<ArtifactWriterHolder>(os)) {}

Result<std::unique_ptr<DatasetCacheStreamWriter>>
DatasetCacheStreamWriter::Create(std::ostream& os, int32_t num_users,
                                 int32_t num_items,
                                 std::span<const uint64_t> row_counts) {
  if (num_users < 0 || num_items < 0) {
    return Status::InvalidArgument("dataset dimensions must be non-negative");
  }
  if (row_counts.size() != static_cast<size_t>(num_users)) {
    return Status::InvalidArgument(
        "row_counts must have one entry per user");
  }
  uint64_t nnz = 0;
  for (uint64_t c : row_counts) {
    if (c > static_cast<uint64_t>(num_items)) {
      return Status::InvalidArgument(
          "declared row longer than the item universe");
    }
    nnz += c;
  }
  auto w = std::unique_ptr<DatasetCacheStreamWriter>(
      new DatasetCacheStreamWriter(
          os, num_users, num_items,
          std::vector<uint64_t>(row_counts.begin(), row_counts.end())));
  w->nnz_ = static_cast<int64_t>(nnz);
  ArtifactWriter& aw = w->writer_->writer;
  GANC_RETURN_NOT_OK(aw.WriteHeader(ArtifactKind::kDatasetCache, 0));

  PayloadWriter dims;
  dims.WriteI32(num_users);
  dims.WriteI32(num_items);
  dims.WriteI64(w->nnz_);
  GANC_RETURN_NOT_OK(aw.WriteSection(kCacheDimsSection, dims));

  PayloadWriter offsets_payload;
  {
    std::vector<uint64_t> offsets(static_cast<size_t>(num_users) + 1, 0);
    for (size_t u = 0; u < row_counts.size(); ++u) {
      offsets[u + 1] = offsets[u] + row_counts[u];
    }
    offsets_payload.WriteVecU64(offsets);
  }
  GANC_RETURN_NOT_OK(aw.WriteSection(kCacheOffsetsSection, offsets_payload));

  // The fingerprint hashes dims first, then each appended row — the
  // same u32-chunk stream as RatingDataset::Fingerprint().
  const auto hash_u32 = [&w](uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    w->fingerprint_.Update(b, sizeof(b));
  };
  hash_u32(static_cast<uint32_t>(num_users));
  hash_u32(static_cast<uint32_t>(num_items));

  // Rows section, streamed: [count u64] then nnz raw ItemRating pairs.
  GANC_RETURN_NOT_OK(aw.BeginSection(
      kCacheRowsSection, 8 + nnz * sizeof(ItemRating)));
  uint8_t count_le[8];
  for (int i = 0; i < 8; ++i) {
    count_le[i] = static_cast<uint8_t>(nnz >> (8 * i));
  }
  GANC_RETURN_NOT_OK(aw.AppendSectionBytes(count_le, sizeof(count_le)));
  return w;
}

Status DatasetCacheStreamWriter::AppendRow(std::span<const ItemRating> row) {
  if (next_user_ >= num_users_) {
    return Status::InvalidArgument("AppendRow called after the last user");
  }
  if (row.size() != row_counts_[static_cast<size_t>(next_user_)]) {
    return Status::InvalidArgument(
        "row length does not match the declared count for user " +
        std::to_string(next_user_));
  }
  for (size_t k = 0; k < row.size(); ++k) {
    if (row[k].item < 0 || row[k].item >= num_items_) {
      return Status::InvalidArgument("item id out of range in appended row");
    }
    if (k > 0 && row[k].item <= row[k - 1].item) {
      return Status::InvalidArgument(
          "appended rows must be strictly item-ascending");
    }
  }
  const auto hash_u32 = [this](uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    fingerprint_.Update(b, sizeof(b));
  };
  hash_u32(static_cast<uint32_t>(row.size()));
  for (const ItemRating& ir : row) {
    hash_u32(static_cast<uint32_t>(ir.item));
    hash_u32(std::bit_cast<uint32_t>(ir.value));
  }
  ArtifactWriter& aw = writer_->writer;
  if constexpr (kGancHostIsLittleEndian) {
    GANC_RETURN_NOT_OK(
        aw.AppendSectionBytes(row.data(), row.size() * sizeof(ItemRating)));
  } else {
    for (const ItemRating& ir : row) {
      uint8_t b[8];
      const uint32_t item = static_cast<uint32_t>(ir.item);
      const uint32_t bits = std::bit_cast<uint32_t>(ir.value);
      for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(item >> (8 * i));
      for (int i = 0; i < 4; ++i) {
        b[4 + i] = static_cast<uint8_t>(bits >> (8 * i));
      }
      GANC_RETURN_NOT_OK(aw.AppendSectionBytes(b, sizeof(b)));
    }
  }
  ++next_user_;
  return Status::OK();
}

Status DatasetCacheStreamWriter::Finish() {
  if (next_user_ != num_users_) {
    return Status::InvalidArgument(
        "Finish called before every declared row was appended");
  }
  ArtifactWriter& aw = writer_->writer;
  GANC_RETURN_NOT_OK(aw.EndSection());

  // Rows arrived in CSR order == insertion order: identity permutation,
  // stored as the empty vector (matches SaveBinary's encoding).
  PayloadWriter order_payload;
  order_payload.WriteVecU64({});
  GANC_RETURN_NOT_OK(aw.WriteSection(kCacheOrderSection, order_payload));

  PayloadWriter fingerprint_payload;
  fingerprint_payload.WriteU64(fingerprint_.digest());
  GANC_RETURN_NOT_OK(
      aw.WriteSection(kCacheFingerprintSection, fingerprint_payload));
  return aw.Finish();
}

Result<RatingDataset> RatingDataset::FromArtifact(ArtifactReader& r) {
  GANC_RETURN_NOT_OK(
      ExpectArtifact(r.header(), ArtifactKind::kDatasetCache, 0));
  RatingDataset ds;
  {
    Result<ArtifactReader::Section> s = r.ReadSectionExpect(
        kCacheDimsSection);
    if (!s.ok()) return s.status();
    PayloadReader pr(s->payload);
    int64_t num_ratings = 0;
    GANC_RETURN_NOT_OK(pr.ReadI32(&ds.num_users_));
    GANC_RETURN_NOT_OK(pr.ReadI32(&ds.num_items_));
    GANC_RETURN_NOT_OK(pr.ReadI64(&num_ratings));
    GANC_RETURN_NOT_OK(pr.ExpectEnd());
    if (ds.num_users_ < 0 || ds.num_items_ < 0 || num_ratings < 0) {
      return Status::InvalidArgument("negative dimensions in dataset cache");
    }
    ds.nnz_ = num_ratings;
  }
  {
    Result<ArtifactReader::Section> s = r.BorrowSectionExpect(
        kCacheOffsetsSection);
    if (!s.ok()) return s.status();
    PayloadReader pr(s->payload);
    GANC_RETURN_NOT_OK(pr.BorrowVec(&ds.user_offsets_view_));
    GANC_RETURN_NOT_OK(pr.ExpectEnd());
  }
  {
    Result<ArtifactReader::Section> s = r.BorrowSectionExpect(
        kCacheRowsSection);
    if (!s.ok()) return s.status();
    PayloadReader pr(s->payload);
    GANC_RETURN_NOT_OK(pr.BorrowVec(&ds.rows_view_));
    GANC_RETURN_NOT_OK(pr.ExpectEnd());
  }
  {
    Result<ArtifactReader::Section> s = r.BorrowSectionExpect(
        kCacheOrderSection);
    if (!s.ok()) return s.status();
    PayloadReader pr(s->payload);
    GANC_RETURN_NOT_OK(pr.BorrowVec(&ds.order_view_));
    GANC_RETURN_NOT_OK(pr.ExpectEnd());
  }
  {
    Result<ArtifactReader::Section> s = r.ReadSectionExpect(
        kCacheFingerprintSection);
    if (!s.ok()) return s.status();
    PayloadReader pr(s->payload);
    GANC_RETURN_NOT_OK(pr.ReadU64(&ds.fingerprint_));
    GANC_RETURN_NOT_OK(pr.ExpectEnd());
  }
  GANC_RETURN_NOT_OK(ExpectEndOfArtifact(r));

  // Cold-load validation is O(users): section sizes and the offset
  // table. Row contents are validated by EnsureResident() (or the first
  // row sweep) before any consumer indexes by item id; until then rows
  // are only read as bounded spans.
  const uint64_t nnz = static_cast<uint64_t>(ds.nnz_);
  if (ds.rows_view_.size() != nnz ||
      (!ds.order_view_.empty() && ds.order_view_.size() != nnz)) {
    return Status::InvalidArgument("dataset cache section sizes disagree");
  }
  GANC_RETURN_NOT_OK(ValidateOffsets(ds.user_offsets_view_, ds.num_users_,
                                     ds.num_items_, nnz));
  ds.artifact_ = std::make_unique<ArtifactState>();
  ds.artifact_->bytes = r.bytes();
  return ds;
}

Result<RatingDataset> RatingDataset::LoadFile(const std::string& path) {
  Result<ArtifactReader> r = ArtifactReader::OpenFile(path);
  if (!r.ok()) return r.status();
  return FromArtifact(*r);
}

Result<RatingDataset> RatingDataset::LoadBinary(std::istream& is) {
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  if (!r.ok()) return r.status();
  return FromArtifact(*r);
}

Result<RatingDataset> RatingDataset::LoadFileAuto(const std::string& path,
                                                  bool prefer_mmap) {
  Result<RatingDataset> ds = LoadFile(path);
  if (ds.ok() && !prefer_mmap) GANC_RETURN_NOT_OK(ds->EnsureResident());
  return ds;
}

RatingDatasetBuilder::RatingDatasetBuilder(int32_t num_users,
                                           int32_t num_items)
    : num_users_(num_users), num_items_(num_items) {
  assert(num_users >= 0 && num_items >= 0);
}

Status RatingDatasetBuilder::Add(UserId user, ItemId item, float value) {
  if (user < 0 || user >= num_users_) {
    return Status::OutOfRange("user id " + std::to_string(user) +
                              " outside [0, " + std::to_string(num_users_) +
                              ")");
  }
  if (item < 0 || item >= num_items_) {
    return Status::OutOfRange("item id " + std::to_string(item) +
                              " outside [0, " + std::to_string(num_items_) +
                              ")");
  }
  ratings_.push_back({user, item, value});
  return Status::OK();
}

Result<RatingDataset> RatingDatasetBuilder::Build() && {
  RatingDataset ds;
  ds.num_users_ = num_users_;
  ds.num_items_ = num_items_;
  ds.ratings_ = std::move(ratings_);
  ds.nnz_ = static_cast<int64_t>(ds.ratings_.size());
  const size_t nnz = ds.ratings_.size();

  // CSR: counting sort by user (insertion order preserved per row),
  // then sort each row by item and reject duplicates.
  ds.user_offsets_.assign(static_cast<size_t>(num_users_) + 1, 0);
  for (const Rating& r : ds.ratings_) {
    ++ds.user_offsets_[static_cast<size_t>(r.user) + 1];
  }
  for (size_t u = 1; u < ds.user_offsets_.size(); ++u) {
    ds.user_offsets_[u] += ds.user_offsets_[u - 1];
  }
  ds.user_rows_.resize(nnz);
  {
    std::vector<uint64_t> cursor(ds.user_offsets_.begin(),
                                 ds.user_offsets_.end() - 1);
    for (const Rating& r : ds.ratings_) {
      ds.user_rows_[cursor[static_cast<size_t>(r.user)]++] = {r.item, r.value};
    }
  }
  for (int32_t u = 0; u < num_users_; ++u) {
    const auto begin = ds.user_rows_.begin() +
                       static_cast<ptrdiff_t>(ds.user_offsets_[u]);
    const auto end = ds.user_rows_.begin() +
                     static_cast<ptrdiff_t>(ds.user_offsets_[u + 1]);
    std::sort(begin, end, [](const ItemRating& a, const ItemRating& b) {
      return a.item < b.item;
    });
    for (auto it = begin; it != end; ++it) {
      if (it != begin && it->item == (it - 1)->item) {
        return Status::InvalidArgument("duplicate (user, item) observation");
      }
    }
  }

  // CSC: walking users ascending yields user-ascending audiences.
  ds.item_offsets_.assign(static_cast<size_t>(num_items_) + 1, 0);
  for (const ItemRating& ir : ds.user_rows_) {
    ++ds.item_offsets_[static_cast<size_t>(ir.item) + 1];
  }
  for (size_t i = 1; i < ds.item_offsets_.size(); ++i) {
    ds.item_offsets_[i] += ds.item_offsets_[i - 1];
  }
  ds.item_cols_.resize(nnz);
  {
    std::vector<uint64_t> cursor(ds.item_offsets_.begin(),
                                 ds.item_offsets_.end() - 1);
    for (int32_t u = 0; u < num_users_; ++u) {
      for (size_t p = ds.user_offsets_[u]; p < ds.user_offsets_[u + 1]; ++p) {
        const ItemRating& ir = ds.user_rows_[p];
        ds.item_cols_[cursor[static_cast<size_t>(ir.item)]++] = {u, ir.value};
      }
    }
  }
  ds.BindOwnedViews();
  return ds;
}

}  // namespace ganc
