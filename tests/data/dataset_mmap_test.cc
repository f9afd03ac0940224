// Loaded dataset cache: LoadFile (a mapping) must expose exactly the
// dataset LoadBinary rebuilds from a stream of the same bytes and the
// dataset that was saved (rows, indexes, fingerprint, ratings order
// after EnsureResident), stay O(users) before residency, reject corrupt
// row data at EnsureResident, and the bench forwarder LoadFileAuto must
// make the dataset resident when asked not to prefer the mapping.

#include "data/dataset.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "util/serialize.h"

namespace ganc {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

RatingDataset MakeData() {
  SyntheticSpec spec = TinySpec();
  spec.num_users = 90;
  spec.num_items = 140;
  spec.mean_activity = 16.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

void ExpectIdentical(const RatingDataset& a, const RatingDataset& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_ratings(), b.num_ratings());
  for (UserId u = 0; u < a.num_users(); ++u) {
    const auto ra = a.ItemsOf(u);
    const auto rb = b.ItemsOf(u);
    ASSERT_EQ(ra.size(), rb.size()) << "user " << u;
    for (size_t k = 0; k < ra.size(); ++k) {
      ASSERT_EQ(ra[k].item, rb[k].item) << "user " << u;
      ASSERT_EQ(ra[k].value, rb[k].value) << "user " << u;
    }
  }
  for (int64_t i = 0; i < a.num_ratings(); ++i) {
    const Rating& x = a.ratings()[static_cast<size_t>(i)];
    const Rating& y = b.ratings()[static_cast<size_t>(i)];
    ASSERT_EQ(x.user, y.user) << "rating " << i;
    ASSERT_EQ(x.item, y.item) << "rating " << i;
    ASSERT_EQ(x.value, y.value) << "rating " << i;
  }
  for (ItemId i = 0; i < a.num_items(); ++i) {
    ASSERT_EQ(a.Popularity(i), b.Popularity(i)) << "item " << i;
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(DatasetMmapTest, MappedEqualsStreamAfterResidency) {
  const RatingDataset original = MakeData();
  const std::string path = TestPath("dataset_mmap_parity.gdc");
  ASSERT_TRUE(original.SaveBinaryFile(path).ok());

  std::ifstream is(path, std::ios::binary);
  auto streamed = RatingDataset::LoadBinary(is);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  auto mapped = RatingDataset::LoadFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->IsMapped());
  EXPECT_FALSE(streamed->IsMapped());

  // Pre-residency surface: dimensions, rows, activity, and the stored
  // fingerprint are available without touching derived indexes.
  EXPECT_EQ(mapped->num_users(), original.num_users());
  EXPECT_EQ(mapped->num_ratings(), original.num_ratings());
  EXPECT_EQ(mapped->Fingerprint(), original.Fingerprint());
  EXPECT_EQ(mapped->Activity(3), original.Activity(3));

  ASSERT_TRUE(mapped->EnsureResident().ok());
  ASSERT_TRUE(streamed->EnsureResident().ok());
  ExpectIdentical(*streamed, *mapped);
  ExpectIdentical(original, *mapped);
}

TEST(DatasetMmapTest, LoadFileAutoForwardsToLoadFile) {
  const RatingDataset original = MakeData();
  const std::string path = TestPath("dataset_mmap_auto.gdc");
  ASSERT_TRUE(original.SaveBinaryFile(path).ok());

  auto lazy = RatingDataset::LoadFileAuto(path, /*prefer_mmap=*/true);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_FALSE(lazy->ResidencyMaterialized());
  auto resident = RatingDataset::LoadFileAuto(path, /*prefer_mmap=*/false);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  EXPECT_TRUE(resident->IsMapped());
  EXPECT_TRUE(resident->ResidencyMaterialized());
  ASSERT_TRUE(lazy->EnsureResident().ok());
  ExpectIdentical(*resident, *lazy);
}

TEST(DatasetMmapTest, TruncationIsATypedErrorNotUB) {
  const RatingDataset original = MakeData();
  const std::string path = TestPath("dataset_mmap_full.gdc");
  ASSERT_TRUE(original.SaveBinaryFile(path).ok());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  const std::string cut_path = TestPath("dataset_mmap_cut.gdc");
  for (size_t cut = 32; cut < bytes.size(); cut += 97) {
    std::ofstream os(cut_path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(cut));
    os.close();
    auto mapped = RatingDataset::LoadFile(cut_path);
    if (!mapped.ok()) continue;  // typed rejection at open
    // An open that survived must still fail validation, not crash.
    EXPECT_FALSE(mapped->EnsureResident().ok()) << "cut " << cut;
  }
}

TEST(DatasetMmapTest, CorruptRowDataRejectedAtResidency) {
  const RatingDataset original = MakeData();
  const std::string path = TestPath("dataset_mmap_rows.gdc");
  ASSERT_TRUE(original.SaveBinaryFile(path).ok());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  // Rows are the third section; find its payload by walking the reader
  // over the intact file, then smash an item id to a huge value. The
  // rows section is well under 1 MiB: small enough that every load
  // checksums it, so corrupt bytes surface at section read. To exercise
  // the *structural* validation instead, rewrite the checksum to match
  // the corrupted payload.
  std::istringstream is(bytes, std::ios::binary);
  auto r = ArtifactReader::OpenStream(is);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ReadSectionExpect(1).ok());
  ASSERT_TRUE(r->ReadSectionExpect(2).ok());
  auto rows = r->ReadSectionExpect(6);
  ASSERT_TRUE(rows.ok());
  const size_t rows_payload_size = rows->payload.size();
  const size_t rows_payload_off = bytes.find(rows->payload);
  ASSERT_NE(rows_payload_off, std::string::npos);
  // First row entry's item id: payload starts with the u64 count.
  const size_t item_off = rows_payload_off + 8;
  bytes[item_off + 3] = static_cast<char>(0x7F);  // item id becomes huge
  const uint64_t fixed_checksum =
      Fnv1aHash(bytes.data() + rows_payload_off, rows_payload_size);
  for (int i = 0; i < 8; ++i) {
    bytes[rows_payload_off + rows_payload_size + static_cast<size_t>(i)] =
        static_cast<char>(fixed_checksum >> (8 * i));
  }
  const std::string bad_path = TestPath("dataset_mmap_badrow.gdc");
  {
    std::ofstream os(bad_path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto mapped = RatingDataset::LoadFile(bad_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  Status s = mapped->EnsureResident();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("out of range"), std::string::npos)
      << s.ToString();
  // The validation error is sticky: a second call reports it again.
  EXPECT_FALSE(mapped->EnsureResident().ok());
  // A stream load of the same bytes defers the same check.
  std::istringstream bad_is(bytes, std::ios::binary);
  auto streamed = RatingDataset::LoadBinary(bad_is);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_NE(streamed->EnsureResident().ToString().find("out of range"),
            std::string::npos);
}

TEST(DatasetMmapTest, StreamWriterOutputIsByteIdenticalToSaveBinary) {
  // The streaming cache writer must produce exactly SaveBinary's bytes
  // for a user-major (identity-order) dataset. The generator inserts in
  // sampled order, so canonicalize first: rebuild in CSR order.
  const RatingDataset original = MakeData();
  RatingDatasetBuilder canonical_builder(original.num_users(),
                                         original.num_items());
  for (UserId u = 0; u < original.num_users(); ++u) {
    for (const ItemRating& ir : original.ItemsOf(u)) {
      ASSERT_TRUE(canonical_builder.Add(u, ir.item, ir.value).ok());
    }
  }
  auto canonical = std::move(canonical_builder).Build();
  ASSERT_TRUE(canonical.ok());
  std::ostringstream reference(std::ios::binary);
  ASSERT_TRUE(canonical->SaveBinary(reference).ok());

  std::vector<uint64_t> counts(static_cast<size_t>(original.num_users()));
  for (UserId u = 0; u < original.num_users(); ++u) {
    counts[static_cast<size_t>(u)] =
        static_cast<uint64_t>(original.Activity(u));
  }
  std::ostringstream streamed(std::ios::binary);
  auto writer = DatasetCacheStreamWriter::Create(
      streamed, original.num_users(), original.num_items(), counts);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (UserId u = 0; u < original.num_users(); ++u) {
    ASSERT_TRUE((*writer)->AppendRow(original.ItemsOf(u)).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_EQ((*writer)->nnz(), original.num_ratings());

  EXPECT_EQ(streamed.str(), reference.str());

  // Rebuilding in CSR order never changes the fingerprint (it is
  // order-insensitive by construction), so the streamed file's stored
  // fingerprint matches the sampled-order original too.
  std::istringstream streamed_is(streamed.str(), std::ios::binary);
  auto streamed_ds = RatingDataset::LoadBinary(streamed_is);
  ASSERT_TRUE(streamed_ds.ok()) << streamed_ds.status().ToString();
  EXPECT_EQ(streamed_ds->Fingerprint(), original.Fingerprint());
}

TEST(DatasetMmapTest, StreamWriterValidatesRows) {
  std::ostringstream os(std::ios::binary);
  const std::vector<uint64_t> counts = {2, 1};
  auto writer = DatasetCacheStreamWriter::Create(os, 2, 5, counts);
  ASSERT_TRUE(writer.ok());
  // Wrong length.
  const std::vector<ItemRating> short_row = {{0, 1.0f}};
  EXPECT_FALSE((*writer)->AppendRow(short_row).ok());
  // Not ascending.
  const std::vector<ItemRating> unsorted = {{3, 1.0f}, {1, 2.0f}};
  EXPECT_FALSE((*writer)->AppendRow(unsorted).ok());
  // Out of range.
  const std::vector<ItemRating> big = {{1, 1.0f}, {9, 2.0f}};
  EXPECT_FALSE((*writer)->AppendRow(big).ok());
  // Finish before all rows appended.
  EXPECT_FALSE((*writer)->Finish().ok());
  const std::vector<ItemRating> ok_row = {{1, 1.0f}, {3, 2.0f}};
  EXPECT_TRUE((*writer)->AppendRow(ok_row).ok());
  const std::vector<ItemRating> last = {{0, 4.0f}};
  EXPECT_TRUE((*writer)->AppendRow(last).ok());
  EXPECT_TRUE((*writer)->Finish().ok());
  // The result is a loadable cache.
  std::istringstream is(os.str(), std::ios::binary);
  auto ds = RatingDataset::LoadBinary(is);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_ratings(), 3);
}

}  // namespace
}  // namespace ganc
