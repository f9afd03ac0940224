// Storage for a latent-factor model's user/item tables at a selectable
// precision (see factor_view.h for the precision semantics).
//
// Lifecycle: Fit produces fp64 tables and hands them over with
// AdoptFp64(); SetPrecision() then optionally narrows them to fp32 or
// quantizes to int8 — and *drops* the fp64 originals, which is the
// point (a compacted model's resident factor bytes shrink 2x / ~8x).
// Because narrowing is lossy, precision conversions only run off fp64
// tables: fp32 -> int8 is an error (re-fit or reload the fp64
// artifact).
//
// Ownership: all table access goes through spans that view either
// owned vectors (fitted or compacted stores) or a loaded artifact's
// factor-table section (Load). Loaded tables feed the SIMD scoring
// kernels in place — the format 8-aligns every table inside the
// section precisely so no copy is needed. A keepalive pins the
// artifact's bytes (a file mapping or a heap buffer) for the store's
// life.
//
// Persistence: the store serializes as its own artifact section
// (kFactorTableSection, docs/FORMATS.md §factor tables) holding only
// the active precision's tables, so a quantized artifact cold-loads
// without ever materializing the fp64 table.

#ifndef GANC_RECOMMENDER_FACTOR_STORE_H_
#define GANC_RECOMMENDER_FACTOR_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "recommender/factor_view.h"
#include "util/serialize.h"
#include "util/status.h"

namespace ganc {

class FactorStore {
 public:
  /// Takes ownership of fitted fp64 tables (user: rows_u x g, item:
  /// rows_i x g, row-major). Resets precision to fp64.
  void AdoptFp64(std::vector<double> user, std::vector<double> item,
                 size_t user_rows, size_t item_rows, size_t num_factors);

  /// Converts the tables to `p` in place. fp64 -> {fp64, fp32, int8}
  /// and identity conversions succeed; anything else is an error (the
  /// fp64 source is gone once compacted). Compacting a loaded fp64
  /// store materializes owned compact tables and releases the artifact
  /// reference.
  Status SetPrecision(FactorPrecision p);

  FactorPrecision precision() const { return precision_; }
  bool empty() const { return user_rows_ == 0 && item_rows_ == 0; }
  size_t num_factors() const { return num_factors_; }
  size_t user_rows() const { return user_rows_; }
  size_t item_rows() const { return item_rows_; }

  /// Points the view's factor-table fields (precision, typed pointers,
  /// num_factors) at this store. Bias fields and num_items are the
  /// caller's.
  void BindView(FactorView* view) const;

  /// fp64 row access for training-time code paths; requires fp64.
  std::span<const double> user_f64() const { return user_f64_view_; }
  std::span<const double> item_f64() const { return item_f64_view_; }

  /// Bytes in the active factor tables (incl. quantization side
  /// tables) — micro's BM_FactorScore_* factor_table_bytes counter. For
  /// a store loaded from a file these bytes are file-backed page cache,
  /// not private RSS.
  size_t ResidentBytes() const;

  /// Serializes the active tables as one section payload, 8-aligning
  /// every table relative to the payload start (sections start 64-byte
  /// aligned in the file, so in-payload alignment is file alignment —
  /// the property borrowing loads rely on).
  void Save(PayloadWriter* w) const;

  /// Parses a factor-table section written by Save(), borrowing every
  /// table zero-copy from `r`'s bytes, which the store keeps alive.
  /// `sec` must have been read from `r`.
  Status Load(const ArtifactReader& r, const ArtifactReader::Section& sec);

  void Clear();

 private:
  struct QuantizedRows {
    std::vector<int8_t> q;      // rows x g
    std::vector<float> scale;   // rows
    std::vector<float> center;  // rows
    std::vector<int32_t> qsum;  // rows, sum_f q[row][f]
  };
  struct QuantizedRowsView {
    std::span<const int8_t> q;
    std::span<const float> scale;
    std::span<const float> center;
    std::span<const int32_t> qsum;
  };

  static QuantizedRows Quantize(std::span<const double> src, size_t rows,
                                size_t g);
  Status ReadScalarHeader(PayloadReader* r);
  Status LoadQuantized(PayloadReader* r, QuantizedRowsView* out, size_t rows,
                       const char* side) const;
  /// Points the views at the owned vectors (the state after Fit).
  void RebindViews();

  FactorPrecision precision_ = FactorPrecision::kFp64;
  size_t user_rows_ = 0;
  size_t item_rows_ = 0;
  size_t num_factors_ = 0;

  // Owned storage (empty when the views borrow artifact bytes).
  std::vector<double> user_f64_;
  std::vector<double> item_f64_;
  std::vector<float> user_f32_;
  std::vector<float> item_f32_;
  QuantizedRows user_q_;
  QuantizedRows item_q_;

  // The active tables: views over the owned vectors or the artifact.
  std::span<const double> user_f64_view_;
  std::span<const double> item_f64_view_;
  std::span<const float> user_f32_view_;
  std::span<const float> item_f32_view_;
  QuantizedRowsView user_qv_;
  QuantizedRowsView item_qv_;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace ganc

#endif  // GANC_RECOMMENDER_FACTOR_STORE_H_
