#include "util/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "util/binary_io.h"

namespace ganc {

namespace {

template <typename T, typename WriteOne>
void WriteVecGeneric(PayloadWriter* w, const std::vector<T>& v,
                     WriteOne&& write_one) {
  w->WriteU64(static_cast<uint64_t>(v.size()));
  if constexpr (kGancHostIsLittleEndian) {
    w->WriteBytes(v.data(), v.size() * sizeof(T));
  } else {
    for (const T& x : v) write_one(x);
  }
}

uint64_t PaddingFor(uint64_t offset) {
  return (kSectionAlignment - offset % kSectionAlignment) % kSectionAlignment;
}

// fsync()s a file or directory by path.
Status SyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return Status::IOError("cannot open " + path + " to sync");
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::IOError("fsync failed for " + path);
  return Status::OK();
}

}  // namespace

void PayloadWriter::WriteU32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  buf_.append(b, sizeof(b));
}

void PayloadWriter::WriteU64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  buf_.append(b, sizeof(b));
}

void PayloadWriter::WriteF32(float v) { WriteU32(std::bit_cast<uint32_t>(v)); }

void PayloadWriter::WriteF64(double v) { WriteU64(std::bit_cast<uint64_t>(v)); }

void PayloadWriter::WriteBytes(const void* data, size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void PayloadWriter::WriteString(std::string_view s) {
  WriteU64(static_cast<uint64_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void PayloadWriter::AlignTo(size_t alignment) {
  buf_.append((alignment - buf_.size() % alignment) % alignment, '\0');
}

void PayloadWriter::WriteVecF64(const std::vector<double>& v) {
  WriteVecGeneric(this, v, [this](double x) { WriteF64(x); });
}

void PayloadWriter::WriteVecF32(const std::vector<float>& v) {
  WriteVecGeneric(this, v, [this](float x) { WriteF32(x); });
}

void PayloadWriter::WriteVecI32(const std::vector<int32_t>& v) {
  WriteVecGeneric(this, v, [this](int32_t x) { WriteI32(x); });
}

void PayloadWriter::WriteVecU64(const std::vector<uint64_t>& v) {
  WriteVecGeneric(this, v, [this](uint64_t x) { WriteU64(x); });
}

void PayloadWriter::WriteVecI8(const std::vector<int8_t>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size());  // single bytes: no endianness
}

Status PayloadReader::Require(size_t n) const {
  // Compare against the remaining bytes (never pos_ + n, which can wrap
  // for forged 64-bit lengths).
  if (n > bytes_.size() - pos_) {
    return Status::InvalidArgument("section payload underrun");
  }
  return Status::OK();
}

Status PayloadReader::ReadU8(uint8_t* out) {
  GANC_RETURN_NOT_OK(Require(1));
  *out = static_cast<uint8_t>(bytes_[pos_++]);
  return Status::OK();
}

Status PayloadReader::ReadU32(uint32_t* out) {
  GANC_RETURN_NOT_OK(Require(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status PayloadReader::ReadU64(uint64_t* out) {
  GANC_RETURN_NOT_OK(Require(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status PayloadReader::ReadI32(int32_t* out) {
  uint32_t v = 0;
  GANC_RETURN_NOT_OK(ReadU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status PayloadReader::ReadI64(int64_t* out) {
  uint64_t v = 0;
  GANC_RETURN_NOT_OK(ReadU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status PayloadReader::ReadF32(float* out) {
  uint32_t v = 0;
  GANC_RETURN_NOT_OK(ReadU32(&v));
  *out = std::bit_cast<float>(v);
  return Status::OK();
}

Status PayloadReader::ReadF64(double* out) {
  uint64_t v = 0;
  GANC_RETURN_NOT_OK(ReadU64(&v));
  *out = std::bit_cast<double>(v);
  return Status::OK();
}

Status PayloadReader::ReadString(std::string* out) {
  uint64_t len = 0;
  GANC_RETURN_NOT_OK(ReadU64(&len));
  GANC_RETURN_NOT_OK(Require(len));
  out->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status PayloadReader::SkipAlign(size_t alignment) {
  const size_t pad = (alignment - pos_ % alignment) % alignment;
  GANC_RETURN_NOT_OK(Require(pad));
  for (size_t i = 0; i < pad; ++i) {
    if (bytes_[pos_ + i] != '\0') {
      return Status::InvalidArgument("nonzero padding in section payload");
    }
  }
  pos_ += pad;
  return Status::OK();
}

Status PayloadReader::ReadVecF64(std::vector<double>* out) {
  uint64_t count = 0;
  GANC_RETURN_NOT_OK(ReadU64(&count));
  if (count > remaining() / sizeof(double)) {  // divide: no u64 wrap
    return Status::InvalidArgument("vector length exceeds section payload");
  }
  out->resize(count);
  if (count == 0) return Status::OK();  // data() may be null
  if constexpr (kGancHostIsLittleEndian) {
    std::memcpy(out->data(), bytes_.data() + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
    return Status::OK();
  }
  for (uint64_t i = 0; i < count; ++i) GANC_RETURN_NOT_OK(ReadF64(&(*out)[i]));
  return Status::OK();
}

Status PayloadReader::ReadVecF32(std::vector<float>* out) {
  uint64_t count = 0;
  GANC_RETURN_NOT_OK(ReadU64(&count));
  if (count > remaining() / sizeof(float)) {  // divide: no u64 wrap
    return Status::InvalidArgument("vector length exceeds section payload");
  }
  out->resize(count);
  if (count == 0) return Status::OK();  // data() may be null
  if constexpr (kGancHostIsLittleEndian) {
    std::memcpy(out->data(), bytes_.data() + pos_, count * sizeof(float));
    pos_ += count * sizeof(float);
    return Status::OK();
  }
  for (uint64_t i = 0; i < count; ++i) GANC_RETURN_NOT_OK(ReadF32(&(*out)[i]));
  return Status::OK();
}

Status PayloadReader::ReadVecI32(std::vector<int32_t>* out) {
  uint64_t count = 0;
  GANC_RETURN_NOT_OK(ReadU64(&count));
  if (count > remaining() / sizeof(int32_t)) {  // divide: no u64 wrap
    return Status::InvalidArgument("vector length exceeds section payload");
  }
  out->resize(count);
  if (count == 0) return Status::OK();  // data() may be null
  if constexpr (kGancHostIsLittleEndian) {
    std::memcpy(out->data(), bytes_.data() + pos_, count * sizeof(int32_t));
    pos_ += count * sizeof(int32_t);
    return Status::OK();
  }
  for (uint64_t i = 0; i < count; ++i) GANC_RETURN_NOT_OK(ReadI32(&(*out)[i]));
  return Status::OK();
}

Status PayloadReader::ReadVecU64(std::vector<uint64_t>* out) {
  uint64_t count = 0;
  GANC_RETURN_NOT_OK(ReadU64(&count));
  if (count > remaining() / sizeof(uint64_t)) {  // divide: no u64 wrap
    return Status::InvalidArgument("vector length exceeds section payload");
  }
  out->resize(count);
  if (count == 0) return Status::OK();  // data() may be null
  if constexpr (kGancHostIsLittleEndian) {
    std::memcpy(out->data(), bytes_.data() + pos_, count * sizeof(uint64_t));
    pos_ += count * sizeof(uint64_t);
    return Status::OK();
  }
  for (uint64_t i = 0; i < count; ++i) GANC_RETURN_NOT_OK(ReadU64(&(*out)[i]));
  return Status::OK();
}

Status PayloadReader::ReadVecI8(std::vector<int8_t>* out) {
  uint64_t count = 0;
  GANC_RETURN_NOT_OK(ReadU64(&count));
  if (count > remaining()) {
    return Status::InvalidArgument("vector length exceeds section payload");
  }
  out->resize(count);
  if (count == 0) return Status::OK();  // data() may be null
  std::memcpy(out->data(), bytes_.data() + pos_, count);
  pos_ += count;
  return Status::OK();
}

Status PayloadReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::InvalidArgument("trailing bytes in section payload");
  }
  return Status::OK();
}

namespace {

void PutU32(std::ostream& os, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  os.write(b, sizeof(b));
}

void PutU64(std::ostream& os, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  os.write(b, sizeof(b));
}

uint32_t DecodeU32(const char* b) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(b[i])) << (8 * i);
  }
  return v;
}

uint64_t DecodeU64(const char* b) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(b[i])) << (8 * i);
  }
  return v;
}

constexpr size_t kHeaderBytes = 24;
// Section id + payload size, ahead of the padding.
constexpr size_t kSectionPrefixBytes = 12;

// Parses and validates the fixed 24-byte header.
Result<ArtifactHeader> ParseHeaderBytes(const char* b) {
  if (std::memcmp(b, kGancArtifactMagic, sizeof(kGancArtifactMagic)) != 0) {
    return Status::InvalidArgument("bad artifact magic (not a GANC artifact)");
  }
  ArtifactHeader header;
  header.version = DecodeU32(b + 8);
  if (header.version != kGancFormatVersion) {
    return Status::InvalidArgument(
        "unsupported artifact format version " +
        std::to_string(header.version) + " (this build reads version " +
        std::to_string(kGancFormatVersion) + " only)");
  }
  header.kind = DecodeU32(b + 12);
  header.type_tag = DecodeU32(b + 16);
  // Reserved-must-be-zero keeps the field usable for future flags (old
  // readers reject artifacts that set bits they do not understand).
  if (DecodeU32(b + 20) != 0) {
    return Status::InvalidArgument("reserved artifact header field not zero");
  }
  return header;
}

}  // namespace

Status ArtifactWriter::WriteHeader(ArtifactKind kind, uint32_t type_tag) {
  os_.write(kGancArtifactMagic, sizeof(kGancArtifactMagic));
  PutU32(os_, kGancFormatVersion);
  PutU32(os_, static_cast<uint32_t>(kind));
  PutU32(os_, type_tag);
  PutU32(os_, 0);  // reserved
  if (!os_) return Status::IOError("artifact header write failed");
  pos_ = kHeaderBytes;
  return Status::OK();
}

Status ArtifactWriter::WriteSectionPrefix(uint32_t id, uint64_t size) {
  PutU32(os_, id);
  PutU64(os_, size);
  pos_ += 12;
  const uint64_t pad = PaddingFor(pos_);
  if (pad > 0) {
    static constexpr char kZeros[kSectionAlignment] = {};
    os_.write(kZeros, static_cast<std::streamsize>(pad));
    pos_ += pad;
  }
  if (!os_) return Status::IOError("artifact section write failed");
  return Status::OK();
}

Status ArtifactWriter::WriteSection(uint32_t id, const PayloadWriter& payload) {
  if (id == kEndSectionId) {
    return Status::InvalidArgument("section id 0 is reserved for the end marker");
  }
  if (in_section_) {
    return Status::FailedPrecondition("streaming section still open");
  }
  const std::string& buf = payload.buffer();
  GANC_RETURN_NOT_OK(WriteSectionPrefix(id, buf.size()));
  os_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  PutU64(os_, Fnv1aHash(buf.data(), buf.size()));
  pos_ += buf.size() + 8;
  if (!os_) return Status::IOError("artifact section write failed");
  return Status::OK();
}

Status ArtifactWriter::BeginSection(uint32_t id, uint64_t size) {
  if (id == kEndSectionId) {
    return Status::InvalidArgument("section id 0 is reserved for the end marker");
  }
  if (in_section_) {
    return Status::FailedPrecondition("streaming section still open");
  }
  if (size > kMaxSectionBytes) {
    return Status::InvalidArgument("implausible section size");
  }
  GANC_RETURN_NOT_OK(WriteSectionPrefix(id, size));
  in_section_ = true;
  declared_ = size;
  appended_ = 0;
  hasher_ = Fnv1aHasher();
  return Status::OK();
}

Status ArtifactWriter::AppendSectionBytes(const void* data, size_t size) {
  if (!in_section_) {
    return Status::FailedPrecondition("no streaming section open");
  }
  if (appended_ + size > declared_) {
    return Status::InvalidArgument("streaming section overflows declared size");
  }
  os_.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  if (!os_) return Status::IOError("artifact section write failed");
  hasher_.Update(data, size);
  appended_ += size;
  pos_ += size;
  return Status::OK();
}

Status ArtifactWriter::EndSection() {
  if (!in_section_) {
    return Status::FailedPrecondition("no streaming section open");
  }
  if (appended_ != declared_) {
    return Status::InvalidArgument("streaming section size mismatch");
  }
  PutU64(os_, hasher_.digest());
  pos_ += 8;
  in_section_ = false;
  if (!os_) return Status::IOError("artifact section write failed");
  return Status::OK();
}

Status ArtifactWriter::Finish() {
  if (in_section_) {
    return Status::FailedPrecondition("streaming section still open");
  }
  PutU32(os_, kEndSectionId);
  PutU64(os_, 0);
  PutU64(os_, Fnv1aHash(nullptr, 0));
  pos_ += 20;
  os_.flush();
  if (!os_) return Status::IOError("artifact end marker write failed");
  return Status::OK();
}

Result<std::shared_ptr<const ArtifactBytes>> ArtifactBytes::MapFile(
    const std::string& path) {
  Result<MmapRegion> region = MmapRegion::Map(path);
  if (!region.ok()) return region.status();
  auto bytes = std::make_shared<ArtifactBytes>();
  bytes->region_ = std::move(region).value();
  return std::shared_ptr<const ArtifactBytes>(std::move(bytes));
}

std::shared_ptr<const ArtifactBytes> ArtifactBytes::ReadStream(
    std::istream& is) {
  auto bytes = std::make_shared<ArtifactBytes>();
  AlignedVector<char>& buf = bytes->heap_;
  // Appends the next `n` stream bytes in bounded chunks, so a forged
  // size on a short stream fails after one short read instead of
  // allocating the claimed size up front. False at end of stream.
  const auto take = [&](uint64_t n) {
    constexpr uint64_t kReadChunk = 1 << 20;
    while (n > 0) {
      const size_t chunk = static_cast<size_t>(std::min(n, kReadChunk));
      const size_t old = buf.size();
      buf.resize(old + chunk);
      is.read(buf.data() + old, static_cast<std::streamsize>(chunk));
      const size_t got = static_cast<size_t>(is.gcount());
      if (got < chunk) {
        buf.resize(old + got);
        return false;
      }
      n -= chunk;
    }
    return true;
  };
  // Walk the framing only: the reader validates what was copied.
  if (take(kHeaderBytes) && ParseHeaderBytes(buf.data()).ok()) {
    while (take(kSectionPrefixBytes)) {
      const char* prefix = buf.data() + buf.size() - kSectionPrefixBytes;
      const uint32_t id = DecodeU32(prefix);
      const uint64_t size = DecodeU64(prefix + 4);
      if (id == kEndSectionId) {
        take(8);  // checksum of the empty payload
        break;
      }
      if (size > kMaxSectionBytes ||
          !take(PaddingFor(buf.size()) + size + 8)) {
        break;
      }
    }
  }
  return bytes;
}

std::shared_ptr<const ArtifactBytes> ArtifactBytes::Copy(
    std::string_view bytes) {
  auto out = std::make_shared<ArtifactBytes>();
  out->heap_.assign(bytes.begin(), bytes.end());
  return out;
}

std::string_view ArtifactBytes::view() const {
  return region_.valid() ? region_.bytes()
                         : std::string_view(heap_.data(), heap_.size());
}

Result<ArtifactReader> ArtifactReader::OpenFile(const std::string& path) {
  Result<std::shared_ptr<const ArtifactBytes>> bytes =
      ArtifactBytes::MapFile(path);
  if (!bytes.ok()) return bytes.status();
  return Open(std::move(bytes).value());
}

Result<ArtifactReader> ArtifactReader::OpenStream(std::istream& is) {
  return Open(ArtifactBytes::ReadStream(is));
}

Result<ArtifactReader> ArtifactReader::Open(
    std::shared_ptr<const ArtifactBytes> bytes) {
  ArtifactReader r;
  r.bytes_ = std::move(bytes);
  r.window_ = r.bytes_->view();
  if (r.window_.size() < kHeaderBytes) {
    return Status::IOError("truncated artifact: magic");
  }
  Result<ArtifactHeader> header = ParseHeaderBytes(r.window_.data());
  if (!header.ok()) return header.status();
  r.header_ = *header;
  r.pos_ = kHeaderBytes;
  return r;
}

Status ArtifactReader::GetU32(uint32_t* out, const char* what) {
  if (4 > window_.size() - pos_) {
    return Status::IOError(std::string("truncated artifact: ") + what);
  }
  *out = DecodeU32(window_.data() + pos_);
  pos_ += 4;
  return Status::OK();
}

Status ArtifactReader::GetU64(uint64_t* out, const char* what) {
  if (8 > window_.size() - pos_) {
    return Status::IOError(std::string("truncated artifact: ") + what);
  }
  *out = DecodeU64(window_.data() + pos_);
  pos_ += 8;
  return Status::OK();
}

Status ArtifactReader::SkipPadding() {
  const uint64_t pad = PaddingFor(pos_);
  if (pad > window_.size() - pos_) {
    return Status::IOError("truncated artifact: section padding");
  }
  for (uint64_t i = 0; i < pad; ++i) {
    if (window_[pos_ + i] != '\0') {
      return Status::InvalidArgument("nonzero section padding");
    }
  }
  pos_ += pad;
  return Status::OK();
}

Result<ArtifactReader::Section> ArtifactReader::Next(bool borrowed) {
  Section section;
  GANC_RETURN_NOT_OK(GetU32(&section.id, "section id"));
  uint64_t size = 0;
  GANC_RETURN_NOT_OK(GetU64(&size, "section size"));
  if (section.id == kEndSectionId && size != 0) {
    return Status::InvalidArgument("end marker with non-zero payload");
  }
  if (size > kMaxSectionBytes) {
    return Status::InvalidArgument("implausible section size");
  }
  // The end marker is never padded (there is no payload to align).
  if (section.id != kEndSectionId) {
    GANC_RETURN_NOT_OK(SkipPadding());
  }
  if (size > window_.size() - pos_) {
    return Status::IOError("truncated artifact: section payload");
  }
  section.payload = window_.substr(pos_, size);
  pos_ += size;
  uint64_t checksum = 0;
  GANC_RETURN_NOT_OK(GetU64(&checksum, "section checksum"));
  // Out-of-core policy: hashing a huge mapped payload that the loader
  // only borrows would fault in every page up front, so such a section
  // stays bounds-checked only. A heap buffer is resident already.
  const bool verify = !borrowed || size <= kMappedChecksumVerifyBytes ||
                      !bytes_->is_mapping();
  if (verify &&
      checksum != Fnv1aHash(section.payload.data(), section.payload.size())) {
    return Status::InvalidArgument(
        "section " + std::to_string(section.id) + " checksum mismatch");
  }
  return section;
}

Result<ArtifactReader::Section> ArtifactReader::ReadSection() {
  return Next(/*borrowed=*/false);
}

namespace {

Result<ArtifactReader::Section> RequireId(
    Result<ArtifactReader::Section> section, uint32_t id) {
  if (!section.ok()) return section.status();
  if (section->id != id) {
    return Status::InvalidArgument("expected artifact section " +
                                   std::to_string(id) + ", found " +
                                   std::to_string(section->id));
  }
  return section;
}

}  // namespace

Result<ArtifactReader::Section> ArtifactReader::ReadSectionExpect(uint32_t id) {
  return RequireId(Next(/*borrowed=*/false), id);
}

Result<ArtifactReader::Section> ArtifactReader::BorrowSectionExpect(
    uint32_t id) {
  return RequireId(Next(/*borrowed=*/true), id);
}

Status WriteArtifactFile(const std::string& path,
                         const std::function<Status(std::ostream&)>& write) {
  // A process-unique temporary name in the target directory, so the
  // final rename never crosses a filesystem.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  Status st = [&]() -> Status {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return Status::IOError("cannot open " + tmp + " for writing");
    GANC_RETURN_NOT_OK(write(os));
    os.close();
    if (!os) return Status::IOError("write failed for " + tmp);
    return SyncPath(tmp, O_RDONLY);
  }();
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::IOError("cannot rename " + tmp + " to " + path);
  }
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  // Make the rename itself durable.
  const size_t slash = path.find_last_of('/');
  return SyncPath(slash == std::string::npos ? std::string(".")
                  : slash == 0               ? std::string("/")
                                             : path.substr(0, slash),
                  O_RDONLY | O_DIRECTORY);
}

Status ExpectEndOfArtifact(ArtifactReader& r) {
  Result<ArtifactReader::Section> section = r.ReadSection();
  if (!section.ok()) return section.status();
  if (section->id != kEndSectionId) {
    return Status::InvalidArgument("unexpected extra artifact section " +
                                   std::to_string(section->id));
  }
  return Status::OK();
}

Status ExpectArtifact(const ArtifactHeader& header, ArtifactKind kind,
                      uint32_t type_tag) {
  if (header.kind != static_cast<uint32_t>(kind)) {
    return Status::InvalidArgument(
        "artifact kind mismatch: file holds kind " +
        std::to_string(header.kind) + ", expected " +
        std::to_string(static_cast<uint32_t>(kind)));
  }
  if (header.type_tag != type_tag) {
    return Status::InvalidArgument(
        "artifact type mismatch: file holds type " +
        std::to_string(header.type_tag) + ", expected " +
        std::to_string(type_tag));
  }
  return Status::OK();
}

}  // namespace ganc
