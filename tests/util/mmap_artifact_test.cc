// The one artifact reader: ArtifactReader over a file mapping must hand
// out 64-byte-aligned zero-copy payload views identical to the views
// over a buffered stream, reject truncation at every cut point with a
// typed error (never UB), apply the borrowed-section checksum policy
// (small or heap-backed payloads verified, big mapped ones only
// bounds-checked), and refuse v2 artifacts from a file and a stream.

#include "util/serialize.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ganc {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good());
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

// An artifact with one small scalar section and one borrowable aligned
// u64 table of `table_size` entries.
std::string MakeArtifactBytes(size_t table_size = 100) {
  std::ostringstream os(std::ios::binary);
  ArtifactWriter w(os);
  EXPECT_TRUE(w.WriteHeader(ArtifactKind::kModel, 1).ok());
  PayloadWriter meta;
  meta.WriteU32(7);
  meta.WriteString("hello");
  EXPECT_TRUE(w.WriteSection(1, meta).ok());
  PayloadWriter table;
  std::vector<uint64_t> values(table_size);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * i;
  table.WriteVecU64(values);
  EXPECT_TRUE(w.WriteSection(2, table).ok());
  EXPECT_TRUE(w.Finish().ok());
  return os.str();
}

TEST(MappedArtifactTest, OpenReadsHeaderAndAlignedSections) {
  const std::string path = TestPath("mmap_roundtrip.gam");
  WriteFileBytes(path, MakeArtifactBytes());

  auto r = ArtifactReader::OpenFile(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->bytes()->is_mapping());
  EXPECT_EQ(r->header().version, kGancFormatVersion);
  EXPECT_EQ(r->header().kind, static_cast<uint32_t>(ArtifactKind::kModel));

  auto meta = r->ReadSectionExpect(1);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  PayloadReader mr(meta->payload);
  uint32_t v = 0;
  std::string s;
  ASSERT_TRUE(mr.ReadU32(&v).ok());
  ASSERT_TRUE(mr.ReadString(&s).ok());
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(s, "hello");

  auto table = r->BorrowSectionExpect(2);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  // The alignment contract: every payload starts on a 64-byte file
  // boundary, which in a page-aligned mapping is a 64-byte address.
  const char* base = table->payload.data();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(base) % kSectionAlignment, 0u);
  // The payload view borrows from the artifact's bytes.
  const std::string_view file = r->bytes()->view();
  EXPECT_GE(base, file.data());
  EXPECT_LE(base + table->payload.size(), file.data() + file.size());

  PayloadReader tr(table->payload);
  std::span<const uint64_t> view;
  ASSERT_TRUE(tr.BorrowVec(&view).ok());
  ASSERT_EQ(view.size(), 100u);
  EXPECT_EQ(view[10], 100u);
  EXPECT_TRUE(tr.ExpectEnd().ok());

  EXPECT_TRUE(ExpectEndOfArtifact(*r).ok());
}

TEST(MappedArtifactTest, MappedAndStreamSectionsAreIdentical) {
  const std::string bytes = MakeArtifactBytes();
  const std::string path = TestPath("mmap_vs_stream.gam");
  WriteFileBytes(path, bytes);

  auto mr = ArtifactReader::OpenFile(path);
  ASSERT_TRUE(mr.ok());
  std::istringstream is(bytes, std::ios::binary);
  auto sr = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(sr.ok());
  EXPECT_TRUE(mr->bytes()->is_mapping());
  EXPECT_FALSE(sr->bytes()->is_mapping());
  for (;;) {
    auto ms = mr->ReadSection();
    auto ss = sr->ReadSection();
    ASSERT_TRUE(ms.ok()) << ms.status().ToString();
    ASSERT_TRUE(ss.ok()) << ss.status().ToString();
    ASSERT_EQ(ms->id, ss->id);
    EXPECT_EQ(ms->payload, ss->payload);
    if (ms->id == kEndSectionId) break;
    // The heap buffer keeps the file's 64-byte payload alignment.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(ss->payload.data()) %
                  kSectionAlignment,
              0u);
  }
}

TEST(MappedArtifactTest, StreamReaderStopsAtTheArtifactEnd) {
  // Two artifacts back to back in one stream: each open consumes
  // exactly one, so the second reads cleanly after the first.
  const std::string one = MakeArtifactBytes(10);
  const std::string two = MakeArtifactBytes(20);
  std::istringstream is(one + two, std::ios::binary);
  auto first = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->bytes()->view(), one);
  auto second = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->bytes()->view(), two);
  EXPECT_EQ(is.peek(), std::char_traits<char>::eof());
}

TEST(MappedArtifactTest, TruncationAtEveryCutIsATypedError) {
  const std::string bytes = MakeArtifactBytes();
  const std::string path = TestPath("mmap_truncated.gam");
  // Sweep every prefix length, mapped and buffered: each must produce a
  // Status error from the open or from section reads — never garbage or
  // a crash.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    WriteFileBytes(path, bytes.substr(0, cut));
    std::istringstream is(bytes.substr(0, cut), std::ios::binary);
    for (auto r : {ArtifactReader::OpenFile(path),
                   ArtifactReader::OpenStream(is)}) {
      if (!r.ok()) {
        EXPECT_NE(r.status().ToString().find("truncated artifact"),
                  std::string::npos)
            << r.status().ToString();
        continue;
      }
      Status error = Status::OK();
      for (int i = 0; i < 8; ++i) {
        auto sec = r->ReadSection();
        if (!sec.ok()) {
          error = sec.status();
          break;
        }
        if (sec->id == kEndSectionId) break;
      }
      // A cut before the end marker must surface an error somewhere.
      ASSERT_FALSE(error.ok()) << "cut " << cut << " slipped through";
      EXPECT_NE(error.ToString().find("truncated artifact"),
                std::string::npos)
          << error.ToString();
    }
  }
}

TEST(MappedArtifactTest, SmallSectionChecksumCorruptionRejected) {
  std::string bytes = MakeArtifactBytes();
  // Flip one byte inside the first section's payload (the first payload
  // starts at offset 64 after the 24-byte header + prefix + padding).
  bytes[70] = static_cast<char>(bytes[70] ^ 0x01);
  const std::string path = TestPath("mmap_corrupt.gam");
  WriteFileBytes(path, bytes);
  auto r = ArtifactReader::OpenFile(path);
  ASSERT_TRUE(r.ok());
  auto sec = r->BorrowSectionExpect(1);
  ASSERT_FALSE(sec.ok());
  EXPECT_NE(sec.status().ToString().find("checksum"), std::string::npos)
      << sec.status().ToString();
}

TEST(MappedArtifactTest, BorrowedBulkSectionsSkipTheChecksumOnlyWhenMapped) {
  // A table section just over kMappedChecksumVerifyBytes, with one
  // payload byte flipped and the stored checksum left stale.
  const size_t entries = kMappedChecksumVerifyBytes / sizeof(uint64_t) + 8;
  std::string bytes = MakeArtifactBytes(entries);
  size_t table_payload = 0;
  {
    std::istringstream intact(bytes, std::ios::binary);
    auto r = ArtifactReader::OpenStream(intact);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->ReadSectionExpect(1).ok());
    auto table = r->ReadSectionExpect(2);
    ASSERT_TRUE(table.ok());
    ASSERT_GT(table->payload.size(), kMappedChecksumVerifyBytes);
    table_payload =
        static_cast<size_t>(table->payload.data() - r->bytes()->view().data());
  }
  bytes[table_payload + 100] ^= 0x01;
  const std::string path = TestPath("mmap_bulk.gam");
  WriteFileBytes(path, bytes);

  // Mapped: a borrowed bulk section is bounds-checked only, a copied
  // one (ReadSectionExpect) is verified.
  for (const bool borrow : {true, false}) {
    auto r = ArtifactReader::OpenFile(path);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->ReadSectionExpect(1).ok());
    auto sec = borrow ? r->BorrowSectionExpect(2) : r->ReadSectionExpect(2);
    EXPECT_EQ(sec.ok(), borrow) << "borrow " << borrow;
  }
  // A heap buffer is resident anyway: every section is verified.
  std::istringstream is(bytes, std::ios::binary);
  auto r = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ReadSectionExpect(1).ok());
  auto sec = r->BorrowSectionExpect(2);
  ASSERT_FALSE(sec.ok());
  EXPECT_NE(sec.status().ToString().find("checksum"), std::string::npos);
}

// A v2 artifact (packed sections, no padding) hand-rolled byte by byte.
std::string MakeV2ArtifactBytes() {
  std::string out(kGancArtifactMagic, sizeof(kGancArtifactMagic));
  const auto put_u32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  const auto put_u64 = [&out](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put_u32(2);  // version
  put_u32(static_cast<uint32_t>(ArtifactKind::kModel));
  put_u32(1);  // type tag
  put_u32(0);  // reserved
  PayloadWriter payload;
  payload.WriteU32(42);
  put_u32(1);  // section id
  put_u64(payload.buffer().size());
  out += payload.buffer();  // no padding in v2
  put_u64(Fnv1aHash(payload.buffer().data(), payload.buffer().size()));
  put_u32(kEndSectionId);
  put_u64(0);
  put_u64(Fnv1aHash(nullptr, 0));
  return out;
}

TEST(MappedArtifactTest, V2ArtifactRejectedFromFileAndStream) {
  const std::string bytes = MakeV2ArtifactBytes();
  const std::string path = TestPath("mmap_v2.gam");
  WriteFileBytes(path, bytes);

  std::istringstream is(bytes, std::ios::binary);
  for (const auto& r :
       {ArtifactReader::OpenFile(path), ArtifactReader::OpenStream(is)}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    const std::string message = r.status().message();
    EXPECT_NE(message.find("version 2"), std::string::npos) << message;
    EXPECT_NE(message.find("version 3"), std::string::npos) << message;
  }
}

TEST(MappedArtifactTest, BorrowVecRejectsMisalignedData) {
  // A payload whose vector data starts 4 bytes in: BorrowVec<uint64_t>
  // must fail the runtime alignment check instead of handing out a
  // misaligned span. (Build the reader over a manual buffer with a
  // known-misaligned base.)
  alignas(16) static char buf[64];
  PayloadWriter w;
  w.WriteU32(0);               // 4 bytes of prefix
  w.WriteVecU64({1, 2, 3});    // count at offset 4, data at offset 12
  ASSERT_LE(w.buffer().size(), sizeof(buf));
  std::memcpy(buf, w.buffer().data(), w.buffer().size());
  PayloadReader r(std::string_view(buf, w.buffer().size()));
  uint32_t prefix = 0;
  ASSERT_TRUE(r.ReadU32(&prefix).ok());
  std::span<const uint64_t> view;
  Status s = r.BorrowVec(&view);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("misaligned"), std::string::npos)
      << s.ToString();
}

TEST(MappedArtifactTest, OpenRejectsMissingFile) {
  auto r = ArtifactReader::OpenFile(TestPath("does_not_exist.gam"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace ganc
