// Shared reader/writer for the GANC binary artifact format: the on-disk
// representation behind model artifacts (Recommender::Save/Load), the
// binary dataset cache (RatingDataset::SaveBinary/LoadFile), top-N
// stores, and pipeline state (GancPipeline::Save/Load).
//
// An artifact is a fixed header (magic, format version, artifact kind,
// type tag) followed by a sequence of independently checksummed
// sections and a mandatory end marker:
//
//   [magic 8B] [version u32] [kind u32] [tag u32] [reserved u32]
//   { [section id u32] [payload size u64] [pad] [payload] [FNV-1a u64] }*
//   [end marker: id 0, size 0, FNV-1a of the empty payload]
//
// Zero bytes are inserted between the size field and the payload so
// every payload starts on a 64-byte boundary (`pad = (-offset) mod 64`,
// where offset is the absolute position after the size field; the end
// marker is never padded). Alignment is what lets a loader hand out
// borrowed views straight into the artifact's bytes: offset tables, CSR
// rows, and factor tables are read in place with zero copies.
//
// There is one reader. It runs over an immutable byte span: a read-only
// file mapping for every file load, or a 64-byte-aligned heap buffer
// for std::istream loads and for the model embedded in a pipeline. All
// integers and floats are little-endian; floats are raw IEEE-754 bits,
// so doubles round-trip bit-exactly. Every record is bounds-checked
// against the span, so bad magic, an unknown version, truncation, or a
// corrupted section surfaces as a Status error, never as garbage state.
// Checksums: ReadSectionExpect verifies every section it returns (the
// sections a loader copies); BorrowSectionExpect, for the sections a
// loader keeps as views, verifies a payload of at most
// kMappedChecksumVerifyBytes, and every payload of a heap buffer —
// hashing a multi-GB mapped section would fault in every page and
// defeat the out-of-core point. `ganc_cli inspect` verifies them all.
// The normative spec lives in docs/FORMATS.md and must stay in sync
// with the constants below (CI greps kGancFormatVersion in both files).

#ifndef GANC_UTIL_SERIALIZE_H_
#define GANC_UTIL_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/aligned.h"
#include "util/binary_io.h"
#include "util/mmap_region.h"
#include "util/status.h"

namespace ganc {

/// The on-disk format version, bumped on any incompatible layout
/// change. Writers emit it and readers accept nothing else.
/// Keep docs/FORMATS.md in sync (CI greps the literal in both files).
inline constexpr uint32_t kGancFormatVersion = 3;

/// Section payloads start on this boundary.
inline constexpr uint64_t kSectionAlignment = 64;

/// BorrowSectionExpect over a file mapping verifies checksums only for
/// payloads at most this large; bigger sections are bounds-checked but
/// read lazily in place.
inline constexpr uint64_t kMappedChecksumVerifyBytes = 1ULL << 20;  // 1 MiB

/// 8-byte file magic, "GANCART" + NUL.
inline constexpr char kGancArtifactMagic[8] = {'G', 'A', 'N', 'C',
                                               'A', 'R', 'T', '\0'};

/// What an artifact holds; stored in the header so a model file is never
/// mistaken for a dataset cache.
enum class ArtifactKind : uint32_t {
  kModel = 1,         ///< one fitted Recommender (tag = ModelType)
  kDatasetCache = 2,  ///< a RatingDataset in CSR layout (tag = 0)
  kPipeline = 3,      ///< GancPipeline offline state (tag = 0)
  kTopNStore = 4,     ///< precomputed serving top-N lists (tag = 0)
};

/// Section id 0 terminates the section list.
inline constexpr uint32_t kEndSectionId = 0;

/// Hard cap on a single section payload (refuses implausible sizes
/// before allocating).
inline constexpr uint64_t kMaxSectionBytes = 1ULL << 34;  // 16 GiB

/// Host endianness gate for the writers' bulk memcpy paths. Borrowed
/// views need a little-endian host, so the reader requires one.
inline constexpr bool kGancHostIsLittleEndian =
    std::endian::native == std::endian::little;

/// Accumulates a section payload in memory with little-endian encoding.
/// Vector writers prepend a u64 element count.
class PayloadWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteBytes(const void* data, size_t size);
  /// u64 length + raw bytes.
  void WriteString(std::string_view s);
  /// Zero-pads the payload so the next write starts at a multiple of
  /// `alignment` *within the payload*. Payloads start 64-byte aligned
  /// in the file, so in-payload alignment is file alignment for any
  /// alignment dividing kSectionAlignment.
  void AlignTo(size_t alignment);
  void WriteVecF64(const std::vector<double>& v);
  void WriteVecF32(const std::vector<float>& v);
  void WriteVecI32(const std::vector<int32_t>& v);
  void WriteVecU64(const std::vector<uint64_t>& v);
  void WriteVecI8(const std::vector<int8_t>& v);
  /// u64 count + raw little-endian elements of any trivially copyable
  /// wire struct whose in-memory layout equals its wire layout on
  /// little-endian hosts (e.g. ItemRating).
  template <typename T>
  void WriteVecRaw(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(static_cast<uint64_t>(count));
    WriteBytes(data, count * sizeof(T));
  }

  const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

/// Decodes a section payload. Every read checks for underrun; vector
/// reads additionally bound the element count by the remaining bytes.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadI64(int64_t* out);
  Status ReadF32(float* out);
  Status ReadF64(double* out);
  Status ReadString(std::string* out);
  /// Skips the zero padding a matching AlignTo wrote (rejects nonzero
  /// pad bytes — they indicate layout drift or corruption).
  Status SkipAlign(size_t alignment);
  Status ReadVecF64(std::vector<double>* out);
  Status ReadVecF32(std::vector<float>* out);
  Status ReadVecI32(std::vector<int32_t>* out);
  Status ReadVecU64(std::vector<uint64_t>* out);
  Status ReadVecI8(std::vector<int8_t>* out);

  /// Zero-copy read of a [count u64][elements] vector: the returned
  /// span aliases the payload bytes, valid only as long as the
  /// artifact's bytes (ArtifactReader::bytes()). Requires a
  /// little-endian host and element-aligned data — misalignment is a
  /// typed error, since the writer always aligns borrowable tables.
  template <typename T>
  Status BorrowVec(std::span<const T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if constexpr (!kGancHostIsLittleEndian) {
      return Status::NotImplemented(
          "zero-copy payload views require a little-endian host");
    }
    uint64_t count = 0;
    GANC_RETURN_NOT_OK(ReadU64(&count));
    if (count > remaining() / sizeof(T)) {  // divide: no u64 wrap
      return Status::InvalidArgument("vector length exceeds section payload");
    }
    const char* base = bytes_.data() + pos_;
    if (reinterpret_cast<uintptr_t>(base) % alignof(T) != 0) {
      return Status::InvalidArgument(
          "misaligned vector data in section payload");
    }
    *out = std::span<const T>(reinterpret_cast<const T*>(base),
                              static_cast<size_t>(count));
    pos_ += static_cast<size_t>(count) * sizeof(T);
    return Status::OK();
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  /// Error when trailing bytes remain (catches layout drift).
  Status ExpectEnd() const;

 private:
  Status Require(size_t n) const;

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Parsed artifact header.
struct ArtifactHeader {
  uint32_t version = 0;
  uint32_t kind = 0;
  uint32_t type_tag = 0;
};

/// Writes the header, then checksummed sections, then the end marker.
/// Always emits the current format version: padded sections. The
/// streaming Begin/Append/End triple writes a section whose size is
/// known up front without buffering the payload — the path the
/// O(users)-memory synthetic generator uses for multi-hundred-MB row
/// sections.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(std::ostream& os) : os_(os) {}

  Status WriteHeader(ArtifactKind kind, uint32_t type_tag);
  Status WriteSection(uint32_t id, const PayloadWriter& payload);

  /// Starts a section of exactly `size` payload bytes, to be delivered
  /// via AppendSectionBytes and closed with EndSection.
  Status BeginSection(uint32_t id, uint64_t size);
  Status AppendSectionBytes(const void* data, size_t size);
  /// Requires the appended total to match the declared size, then
  /// writes the checksum accumulated incrementally over the appends.
  Status EndSection();

  /// Writes the end marker; the artifact is incomplete without it.
  Status Finish();

 private:
  Status WriteSectionPrefix(uint32_t id, uint64_t size);

  std::ostream& os_;
  uint64_t pos_ = 0;  // absolute offset, drives payload alignment
  // In-flight streaming section state.
  bool in_section_ = false;
  uint64_t declared_ = 0;
  uint64_t appended_ = 0;
  Fnv1aHasher hasher_;
};

/// The immutable bytes of one artifact: a read-only file mapping, or a
/// 64-byte-aligned heap buffer. Every view a loader keeps (dataset
/// rows, factor tables, store lists) holds a shared_ptr to it.
class ArtifactBytes {
 public:
  /// Maps `path` read-only (kIOError when it cannot be opened).
  static Result<std::shared_ptr<const ArtifactBytes>> MapFile(
      const std::string& path);
  /// Copies one artifact out of `is`, which must be positioned at its
  /// first byte: the header, then section by section through the end
  /// marker, so the stream is left just past the artifact. A stream
  /// that ends early yields the bytes read so far (the reader reports
  /// the truncation); a forged section size never allocates more than
  /// 1 MiB beyond what the stream actually holds.
  static std::shared_ptr<const ArtifactBytes> ReadStream(std::istream& is);
  /// Copies `bytes` into an aligned heap buffer.
  static std::shared_ptr<const ArtifactBytes> Copy(std::string_view bytes);

  std::string_view view() const;
  /// True for a file mapping, whose clean pages may be dropped with
  /// ReleaseMappedPages; false for a heap buffer, where that would zero
  /// live data.
  bool is_mapping() const { return region_.valid(); }

 private:
  MmapRegion region_;
  AlignedVector<char> heap_;
};

/// Validating reader over one artifact's bytes. Opening parses and
/// checks the header; sections are then read in file order as views
/// into the bytes (see the header comment for the checksum policy).
class ArtifactReader {
 public:
  struct Section {
    uint32_t id = kEndSectionId;
    /// Points into bytes(); valid as long as the reader or any holder
    /// of bytes() lives.
    std::string_view payload;
  };

  /// Maps `path`: every file load.
  static Result<ArtifactReader> OpenFile(const std::string& path);
  /// Buffers one artifact read from `is` (see ArtifactBytes::ReadStream).
  static Result<ArtifactReader> OpenStream(std::istream& is);
  /// Over bytes already in hand (the model embedded in a pipeline).
  static Result<ArtifactReader> Open(
      std::shared_ptr<const ArtifactBytes> bytes);

  const ArtifactHeader& header() const { return header_; }

  /// Reads the next section and verifies its checksum. id ==
  /// kEndSectionId signals a well-formed end of artifact.
  Result<Section> ReadSection();

  /// ReadSection, requiring `id`: the fixed-layout read path of every
  /// loader, for sections it parses or copies.
  Result<Section> ReadSectionExpect(uint32_t id);

  /// ReadSectionExpect for a section the loader keeps as a view into
  /// bytes(): the checksum is verified for a payload of at most
  /// kMappedChecksumVerifyBytes, and for every payload of a heap
  /// buffer; a bigger mapped payload is only bounds-checked.
  Result<Section> BorrowSectionExpect(uint32_t id);

  /// The bytes every payload view points into; a loader that keeps a
  /// view holds this as its keepalive.
  const std::shared_ptr<const ArtifactBytes>& bytes() const { return bytes_; }

 private:
  ArtifactReader() = default;
  Result<Section> Next(bool borrowed);
  Status GetU32(uint32_t* out, const char* what);
  Status GetU64(uint64_t* out, const char* what);
  Status SkipPadding();

  std::shared_ptr<const ArtifactBytes> bytes_;
  std::string_view window_;  // bytes_->view()
  uint64_t pos_ = 0;         // absolute offset from the artifact's first byte
  ArtifactHeader header_;
};

/// Validates header kind/tag with descriptive errors ("artifact holds a
/// dataset cache, expected a model", "model artifact holds type 6,
/// expected 7").
Status ExpectArtifact(const ArtifactHeader& header, ArtifactKind kind,
                      uint32_t type_tag);

/// Reads one more section and requires it to be the end marker — the
/// shared epilogue of every Load implementation (rejects artifacts with
/// unexpected trailing sections).
Status ExpectEndOfArtifact(ArtifactReader& r);

/// Writes an artifact to `path` atomically: `write` fills a temporary
/// file in the same directory, which is flushed, fsync'ed and renamed
/// over `path` (then the directory is fsync'ed). A reader never sees a
/// partial file, and a process that has `path` mapped keeps reading
/// the old bytes. On any error the temporary file is removed and `path`
/// is left as it was. Behind every SaveXxxFile entry point.
Status WriteArtifactFile(const std::string& path,
                         const std::function<Status(std::ostream&)>& write);

}  // namespace ganc

#endif  // GANC_UTIL_SERIALIZE_H_
