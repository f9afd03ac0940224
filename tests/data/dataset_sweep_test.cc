// Budgeted row-window sweeps: PlanRowWindows must cover every user
// exactly once in block-aligned windows that respect the byte budget,
// SweepRowWindows must visit the same rows for every budget without
// materializing a mapped dataset, and corrupt mapped rows must surface
// as a sweep error instead of being handed to a trainer.

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
  spec.num_users = 130;
  spec.num_items = 90;
  spec.mean_activity = 14.0;
  auto ds = GenerateSynthetic(spec);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

// All rows in window order, flattened: the sweep-observable content.
std::vector<ItemRating> SweptRows(const RatingDataset& ds, int64_t budget,
                                  int32_t align) {
  std::vector<ItemRating> rows;
  std::vector<RowWindow> windows;
  const Status s = ds.SweepRowWindows(budget, align, [&](const RowWindow& w) {
    windows.push_back(w);
    for (UserId u = w.begin; u < w.end; ++u) {
      for (const ItemRating& ir : ds.ItemsOf(u)) rows.push_back(ir);
    }
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  // Windows partition [0, num_users) in order, nnz annotations correct.
  UserId expect_begin = 0;
  for (const RowWindow& w : windows) {
    EXPECT_EQ(w.begin, expect_begin);
    EXPECT_LT(w.begin, w.end);
    int64_t nnz = 0;
    for (UserId u = w.begin; u < w.end; ++u) nnz += ds.Activity(u);
    EXPECT_EQ(w.nnz, nnz);
    expect_begin = w.end;
  }
  EXPECT_EQ(expect_begin, ds.num_users());
  return rows;
}

TEST(DatasetSweepTest, PlanCoversAllUsersWithinBudget) {
  const RatingDataset ds = MakeData();
  const int64_t row_bytes =
      ds.num_ratings() * static_cast<int64_t>(sizeof(ItemRating));

  // No budget: one window over everything.
  const auto whole = ds.PlanRowWindows(0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].begin, 0);
  EXPECT_EQ(whole[0].end, ds.num_users());
  EXPECT_EQ(whole[0].nnz, ds.num_ratings());

  // A quarter of the payload: several windows, each within budget unless
  // a single aligned block alone exceeds it.
  const int64_t budget = row_bytes / 4;
  const auto quarters = ds.PlanRowWindows(budget, /*align_users=*/8);
  EXPECT_GT(quarters.size(), 1u);
  UserId next = 0;
  for (const RowWindow& w : quarters) {
    EXPECT_EQ(w.begin, next);
    // Window boundaries land on block boundaries (except the final tail).
    if (w.end != ds.num_users()) EXPECT_EQ(w.end % 8, 0);
    const bool single_block = w.end - w.begin <= 8;
    if (!single_block) {
      EXPECT_LE(w.nnz * static_cast<int64_t>(sizeof(ItemRating)), budget);
    }
    next = w.end;
  }
  EXPECT_EQ(next, ds.num_users());

  // A budget below one row still makes progress: one block per window.
  const auto tiny = ds.PlanRowWindows(1, /*align_users=*/4);
  for (const RowWindow& w : tiny) {
    EXPECT_LE(w.end - w.begin, 4);
  }
}

TEST(DatasetSweepTest, SweepContentIsBudgetInvariant) {
  const RatingDataset eager = MakeData();
  const std::string path = TestPath("dataset_sweep_parity.gdc");
  ASSERT_TRUE(eager.SaveBinaryFile(path).ok());
  auto mapped = RatingDataset::LoadFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::vector<ItemRating> reference = SweptRows(eager, 0, 1);
  for (const int64_t budget : {int64_t{0}, int64_t{256}, int64_t{4096},
                               int64_t{1} << 30}) {
    for (const int32_t align : {1, 7, 64}) {
      const std::vector<ItemRating> got = SweptRows(*mapped, budget, align);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].item, reference[k].item)
            << "budget " << budget << " align " << align << " at " << k;
        ASSERT_EQ(got[k].value, reference[k].value)
            << "budget " << budget << " align " << align << " at " << k;
      }
    }
  }
  // The sweeps validated and released pages; nothing was materialized.
  EXPECT_TRUE(mapped->IsMapped());
  EXPECT_FALSE(mapped->ResidencyMaterialized());
  std::remove(path.c_str());
}

TEST(DatasetSweepTest, SweepStopsOnCallbackError) {
  const RatingDataset ds = MakeData();
  int calls = 0;
  const Status s = ds.SweepRowWindows(256, 1, [&](const RowWindow&) {
    return ++calls == 2 ? Status::InvalidArgument("stop here") : Status::OK();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(calls, 2);
}

TEST(DatasetSweepTest, SweepRejectsCorruptMappedRows) {
  const RatingDataset ds = MakeData();
  std::ostringstream buf(std::ios::binary);
  ASSERT_TRUE(ds.SaveBinary(buf).ok());
  std::string bytes = buf.str();

  // Corrupt a row entry and re-seal the section checksum so the mapped
  // loader accepts the file and the *structural* row validation inside
  // the sweep has to catch it (same construction as the EnsureResident
  // corrupt-row test).
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
  const size_t item_off = rows_payload_off + 8;  // skip the u64 count
  bytes[item_off + 3] = static_cast<char>(0x7F);  // item id becomes huge
  const uint64_t fixed_checksum =
      Fnv1aHash(bytes.data() + rows_payload_off, rows_payload_size);
  for (int i = 0; i < 8; ++i) {
    bytes[rows_payload_off + rows_payload_size + static_cast<size_t>(i)] =
        static_cast<char>(fixed_checksum >> (8 * i));
  }
  const std::string path = TestPath("dataset_sweep_badrow.gdc");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto mapped = RatingDataset::LoadFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const Status swept =
      mapped->SweepRowWindows(1024, 1, [](const RowWindow&) {
        return Status::OK();
      });
  ASSERT_FALSE(swept.ok());
  EXPECT_NE(swept.ToString().find("out of range"), std::string::npos)
      << swept.ToString();
  // The error is sticky across retries, like EnsureResident's.
  EXPECT_FALSE(mapped->SweepRowWindows(1024, 1, [](const RowWindow&) {
                 return Status::OK();
               }).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ganc
