#include "util/serialize.h"

#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

namespace ganc {
namespace {

std::string WriteArtifact(ArtifactKind kind, uint32_t tag,
                          const std::vector<std::pair<uint32_t, std::string>>&
                              sections) {
  std::ostringstream os(std::ios::binary);
  ArtifactWriter w(os);
  EXPECT_TRUE(w.WriteHeader(kind, tag).ok());
  for (const auto& [id, bytes] : sections) {
    PayloadWriter payload;
    payload.WriteBytes(bytes.data(), bytes.size());
    EXPECT_TRUE(w.WriteSection(id, payload).ok());
  }
  EXPECT_TRUE(w.Finish().ok());
  return os.str();
}

TEST(PayloadTest, PrimitivesRoundTripExactly) {
  PayloadWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI32(-7);
  w.WriteI64(-1234567890123LL);
  w.WriteF32(1.5f);
  w.WriteF64(-2.25e-300);
  w.WriteString("hello");

  PayloadReader r(w.buffer());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadF32(&f32).ok());
  ASSERT_TRUE(r.ReadF64(&f64).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25e-300);
  EXPECT_EQ(s, "hello");
}

TEST(PayloadTest, LittleEndianWireLayout) {
  PayloadWriter w;
  w.WriteU32(0x01020304u);
  const std::string& b = w.buffer();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(b[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(b[1]), 0x03);
  EXPECT_EQ(static_cast<uint8_t>(b[2]), 0x02);
  EXPECT_EQ(static_cast<uint8_t>(b[3]), 0x01);
}

TEST(PayloadTest, VectorsRoundTripBitExactly) {
  PayloadWriter w;
  const std::vector<double> f64{0.0, -0.0, 1e308, -1e-308, 3.14159};
  const std::vector<float> f32{1.0f, -2.5f, 3e38f};
  const std::vector<int32_t> i32{-1, 0, 1 << 30};
  const std::vector<uint64_t> u64{0, 1ULL << 63};
  w.WriteVecF64(f64);
  w.WriteVecF32(f32);
  w.WriteVecI32(i32);
  w.WriteVecU64(u64);

  PayloadReader r(w.buffer());
  std::vector<double> rf64;
  std::vector<float> rf32;
  std::vector<int32_t> ri32;
  std::vector<uint64_t> ru64;
  ASSERT_TRUE(r.ReadVecF64(&rf64).ok());
  ASSERT_TRUE(r.ReadVecF32(&rf32).ok());
  ASSERT_TRUE(r.ReadVecI32(&ri32).ok());
  ASSERT_TRUE(r.ReadVecU64(&ru64).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  // Bit-level equality, including the -0.0 sign.
  ASSERT_EQ(rf64.size(), f64.size());
  for (size_t i = 0; i < f64.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(rf64[i]), std::bit_cast<uint64_t>(f64[i]));
  }
  EXPECT_EQ(rf32, f32);
  EXPECT_EQ(ri32, i32);
  EXPECT_EQ(ru64, u64);
}

TEST(PayloadTest, EmptyVectorsRoundTrip) {
  // An empty vector's data() may be null: no reader may copy into it.
  PayloadWriter w;
  w.WriteVecF64({});
  w.WriteVecF32({});
  w.WriteVecI32({});
  w.WriteVecU64({});
  w.WriteVecI8({});

  PayloadReader r(w.buffer());
  std::vector<double> f64{1.0};
  std::vector<float> f32{1.0f};
  std::vector<int32_t> i32{1};
  std::vector<uint64_t> u64{1};
  std::vector<int8_t> i8{1};
  ASSERT_TRUE(r.ReadVecF64(&f64).ok());
  ASSERT_TRUE(r.ReadVecF32(&f32).ok());
  ASSERT_TRUE(r.ReadVecI32(&i32).ok());
  ASSERT_TRUE(r.ReadVecU64(&u64).ok());
  ASSERT_TRUE(r.ReadVecI8(&i8).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_TRUE(f64.empty());
  EXPECT_TRUE(f32.empty());
  EXPECT_TRUE(i32.empty());
  EXPECT_TRUE(u64.empty());
  EXPECT_TRUE(i8.empty());
}

TEST(PayloadTest, UnderrunReported) {
  PayloadWriter w;
  w.WriteU32(7);
  PayloadReader r(w.buffer());
  uint64_t v = 0;
  EXPECT_FALSE(r.ReadU64(&v).ok());
}

TEST(PayloadTest, OversizedVectorLengthRejected) {
  // A forged length prefix larger than the payload must not allocate.
  PayloadWriter w;
  w.WriteU64(1ULL << 40);  // claims 2^40 doubles
  PayloadReader r(w.buffer());
  std::vector<double> out;
  EXPECT_FALSE(r.ReadVecF64(&out).ok());
}

TEST(PayloadTest, WrappingVectorLengthRejected) {
  // count * sizeof(double) == 0 mod 2^64: the byte-size computation
  // wraps, so the guard must compare counts, not byte products.
  PayloadWriter w;
  w.WriteU64(0x2000000000000000ULL);
  PayloadReader r(w.buffer());
  std::vector<double> f64;
  EXPECT_FALSE(r.ReadVecF64(&f64).ok());
  PayloadReader r2(w.buffer());
  std::vector<uint64_t> u64;
  EXPECT_FALSE(r2.ReadVecU64(&u64).ok());
}

TEST(PayloadTest, WrappingStringLengthRejected) {
  PayloadWriter w;
  w.WriteU64(~0ULL - 3);  // pos + len wraps past the bound check
  w.WriteU32(0);
  PayloadReader r(w.buffer());
  std::string s;
  EXPECT_FALSE(r.ReadString(&s).ok());
}

TEST(PayloadTest, TrailingBytesRejected) {
  PayloadWriter w;
  w.WriteU32(1);
  w.WriteU32(2);
  PayloadReader r(w.buffer());
  uint32_t v = 0;
  ASSERT_TRUE(r.ReadU32(&v).ok());
  EXPECT_FALSE(r.ExpectEnd().ok());
}

TEST(ArtifactTest, HeaderAndSectionsRoundTrip) {
  const std::string artifact = WriteArtifact(
      ArtifactKind::kModel, 42, {{1, "config"}, {2, "state-bytes"}});
  std::istringstream is(artifact, std::ios::binary);
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->header().version, kGancFormatVersion);
  EXPECT_EQ(r->header().kind, static_cast<uint32_t>(ArtifactKind::kModel));
  EXPECT_EQ(r->header().type_tag, 42u);
  Result<ArtifactReader::Section> s1 = r->ReadSectionExpect(1);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->payload, "config");
  Result<ArtifactReader::Section> s2 = r->ReadSectionExpect(2);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->payload, "state-bytes");
  EXPECT_TRUE(ExpectEndOfArtifact(*r).ok());
}

TEST(ArtifactTest, BadMagicRejected) {
  std::string artifact = WriteArtifact(ArtifactKind::kModel, 1, {});
  artifact[0] ^= 0x5A;
  std::istringstream is(artifact, std::ios::binary);
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

TEST(ArtifactTest, WrongVersionRejected) {
  std::string artifact = WriteArtifact(ArtifactKind::kModel, 1, {});
  artifact[8] = static_cast<char>(kGancFormatVersion + 1);  // version field
  std::istringstream is(artifact, std::ios::binary);
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST(ArtifactTest, CorruptSectionPayloadRejected) {
  std::string artifact = WriteArtifact(ArtifactKind::kModel, 1,
                                       {{1, "payload-bytes"}});
  // Header is 24 bytes, section header 12, then v3 zero-padding up to
  // the 64-byte payload boundary; flip a payload byte.
  artifact[64 + 3] ^= 0x5A;
  std::istringstream is(artifact, std::ios::binary);
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(r.ok());
  Result<ArtifactReader::Section> s = r->ReadSection();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.status().message().find("checksum"), std::string::npos);
}

TEST(ArtifactTest, CorruptSectionPaddingRejected) {
  std::string artifact = WriteArtifact(ArtifactKind::kModel, 1,
                                       {{1, "payload-bytes"}});
  // A nonzero byte inside the v3 alignment padding is corruption too.
  artifact[24 + 12 + 3] ^= 0x5A;
  std::istringstream is(artifact, std::ios::binary);
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(r.ok());
  Result<ArtifactReader::Section> s = r->ReadSection();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.status().message().find("padding"), std::string::npos);
}

TEST(ArtifactTest, TruncatedSectionRejected) {
  std::string artifact = WriteArtifact(ArtifactKind::kModel, 1,
                                       {{1, "payload-bytes"}});
  artifact.resize(artifact.size() - 30);
  std::istringstream is(artifact, std::ios::binary);
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(r.ok());
  // Either the payload or the end marker is gone; both must error, never
  // return garbage.
  Result<ArtifactReader::Section> s = r->ReadSection();
  if (s.ok()) EXPECT_FALSE(ExpectEndOfArtifact(*r).ok());
}

TEST(ArtifactTest, KindAndTagMismatchDetected) {
  ArtifactHeader header{kGancFormatVersion,
                        static_cast<uint32_t>(ArtifactKind::kModel), 6};
  EXPECT_TRUE(ExpectArtifact(header, ArtifactKind::kModel, 6).ok());
  EXPECT_FALSE(ExpectArtifact(header, ArtifactKind::kDatasetCache, 6).ok());
  EXPECT_FALSE(ExpectArtifact(header, ArtifactKind::kModel, 7).ok());
}

TEST(ArtifactTest, MissingEndMarkerDetected) {
  std::ostringstream os(std::ios::binary);
  ArtifactWriter w(os);
  ASSERT_TRUE(w.WriteHeader(ArtifactKind::kModel, 1).ok());
  PayloadWriter payload;
  payload.WriteU32(5);
  ASSERT_TRUE(w.WriteSection(1, payload).ok());
  // No Finish(): reading past the section must fail, not hang or succeed.
  std::istringstream is(os.str(), std::ios::binary);
  Result<ArtifactReader> r = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ReadSectionExpect(1).ok());
  EXPECT_FALSE(ExpectEndOfArtifact(*r).ok());
}

TEST(ArtifactTest, SectionIdZeroReservedForEndMarker) {
  std::ostringstream os(std::ios::binary);
  ArtifactWriter w(os);
  ASSERT_TRUE(w.WriteHeader(ArtifactKind::kModel, 1).ok());
  PayloadWriter payload;
  EXPECT_FALSE(w.WriteSection(kEndSectionId, payload).ok());
}

std::string FileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

// Every file in `dir` other than `keep`.
std::vector<std::string> OtherFiles(const std::string& dir,
                                    const std::string& keep) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename() != keep) out.push_back(e.path().string());
  }
  return out;
}

TEST(ArtifactFileTest, WriteReplacesTheFileAtomically) {
  const std::string dir = ::testing::TempDir() + "/ganc_atomic_write";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/a.gam";
  const std::string first =
      WriteArtifact(ArtifactKind::kModel, 1, {{1, "first"}});
  const std::string second =
      WriteArtifact(ArtifactKind::kModel, 1, {{1, "second, longer"}});
  const auto write = [](const std::string& bytes) {
    return [&bytes](std::ostream& os) {
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      return Status::OK();
    };
  };
  ASSERT_TRUE(WriteArtifactFile(path, write(first)).ok());
  EXPECT_EQ(FileBytes(path), first);

  // A reader that mapped the old file keeps seeing the old bytes: the
  // new file is a new inode, renamed over the path.
  Result<ArtifactReader> held = ArtifactReader::OpenFile(path);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(WriteArtifactFile(path, write(second)).ok());
  EXPECT_EQ(held->bytes()->view(), first);
  EXPECT_EQ(FileBytes(path), second);
  EXPECT_TRUE(OtherFiles(dir, "a.gam").empty());

  // A write callback that fails after writing some bytes leaves the old
  // file as it was and no temporary file behind.
  const Status failed = WriteArtifactFile(path, [](std::ostream& os) {
    os << "partial";
    return Status::IOError("disk full");
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("disk full"), std::string::npos);
  EXPECT_EQ(FileBytes(path), second);
  EXPECT_TRUE(OtherFiles(dir, "a.gam").empty());

  // So does a path whose directory does not exist.
  EXPECT_EQ(WriteArtifactFile(dir + "/missing/b.gam", write(first)).code(),
            StatusCode::kIOError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ganc
