// Mapped top-N store: LoadFile must serve exactly the lists a stream
// load of the same bytes reconstructs, validate offsets and every
// stored id before handing out any view, reject corruption and
// truncation, and a ganc_serve given a store with an out-of-range id
// must refuse it instead of serving (or indexing) that id.

#include "serve/topn_store.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/serialize.h"

namespace ganc {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good());
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A store over 40 users with varied list lengths (including absent
// users and one empty-but-present shape via a short list).
TopNStore MakeStore() {
  std::vector<std::pair<UserId, std::vector<ItemId>>> lists;
  for (UserId u = 0; u < 40; u += 3) {
    std::vector<ItemId> items;
    for (int32_t k = 0; k < (u % 7) + 1; ++k) {
      items.push_back((u * 13 + k * 5) % 90);
    }
    lists.emplace_back(u, std::move(items));
  }
  auto store = TopNStore::FromLists(40, 90, 8, /*train_fingerprint=*/0xABCD,
                                    "psvd10", lists);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

void ExpectSameLists(const TopNStore& a, const TopNStore& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.top_n(), b.top_n());
  ASSERT_EQ(a.train_fingerprint(), b.train_fingerprint());
  ASSERT_EQ(a.source(), b.source());
  ASSERT_EQ(a.num_lists(), b.num_lists());
  ASSERT_EQ(a.total_items(), b.total_items());
  for (UserId u = 0; u < a.num_users(); ++u) {
    const auto la = a.ListFor(u);
    const auto lb = b.ListFor(u);
    ASSERT_EQ(la.size(), lb.size()) << "user " << u;
    for (size_t k = 0; k < la.size(); ++k) {
      ASSERT_EQ(la[k], lb[k]) << "user " << u << " pos " << k;
    }
  }
}

TEST(TopNStoreMmapTest, MappedServesTheStreamLoadersLists) {
  const TopNStore original = MakeStore();
  const std::string path = TestPath("store_mmap.gts");
  ASSERT_TRUE(original.SaveFile(path).ok());

  std::ifstream is(path, std::ios::binary);
  auto streamed = TopNStore::Load(is);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  auto mapped = TopNStore::LoadFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->IsMapped());
  EXPECT_FALSE(streamed->IsMapped());
  ExpectSameLists(*streamed, *mapped);
  ExpectSameLists(original, *mapped);
  // Users not in the store own an empty slice either way.
  EXPECT_TRUE(mapped->ListFor(1).empty());
  std::remove(path.c_str());
}

TEST(TopNStoreMmapTest, AutoLoaderForwardsToLoadFile) {
  const TopNStore original = MakeStore();
  const std::string path = TestPath("store_auto.gts");
  ASSERT_TRUE(original.SaveFile(path).ok());
  for (const bool prefer_mmap : {true, false}) {
    auto store = TopNStore::LoadFileAuto(path, prefer_mmap);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(store->IsMapped());
    ExpectSameLists(original, *store);
  }
  std::remove(path.c_str());
}

TEST(TopNStoreMmapTest, TruncationAtEveryCutIsATypedError) {
  const TopNStore original = MakeStore();
  const std::string path = TestPath("store_full.gts");
  ASSERT_TRUE(original.SaveFile(path).ok());
  const std::string bytes = FileBytes(path);
  const std::string cut_path = TestPath("store_cut.gts");
  for (size_t cut = 0; cut < bytes.size(); cut += 5) {
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    auto mapped = TopNStore::LoadFile(cut_path);
    EXPECT_FALSE(mapped.ok()) << "cut " << cut << " slipped through";
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(TopNStoreMmapTest, CorruptOffsetsRejectedBeforeAnyLookup) {
  const TopNStore original = MakeStore();
  const std::string path = TestPath("store_corrupt.gts");
  ASSERT_TRUE(original.SaveFile(path).ok());
  std::string bytes = FileBytes(path);
  // Flip one byte at a time across the whole file: the mapped loader
  // either refuses the artifact or — never — serves different lists.
  int rejections = 0;
  const std::string bad_path = TestPath("store_bad.gts");
  for (size_t i = 0; i < bytes.size(); i += 3) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x5A;
    WriteFileBytes(bad_path, corrupt);
    auto mapped = TopNStore::LoadFile(bad_path);
    if (!mapped.ok()) {
      ++rejections;
      continue;
    }
    // Survivors must still be structurally sound and fingerprint-gated;
    // a changed fingerprint or source string is the acceptable case.
    for (UserId u = 0; u < mapped->num_users(); ++u) {
      const auto list = mapped->ListFor(u);
      for (ItemId item : list) {
        ASSERT_GE(item, 0) << "byte " << i;
        ASSERT_LT(item, mapped->num_items()) << "byte " << i;
      }
    }
  }
  // The store artifact is small, so every section is checksum-covered:
  // the vast majority of flips must be outright rejections.
  EXPECT_GT(rejections, 0);
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

// Sets the first stored item id of the store at `path` to 999999 and
// re-seals the items section checksum, so only the id range check can
// catch it. Returns the poisoned file's path.
std::string PoisonFirstItem(const std::string& path, const std::string& name) {
  std::string bytes = FileBytes(path);
  std::istringstream is(bytes, std::ios::binary);
  auto r = ArtifactReader::OpenStream(is);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r->ReadSectionExpect(1).ok());
  EXPECT_TRUE(r->ReadSectionExpect(2).ok());
  auto items = r->ReadSectionExpect(3);
  EXPECT_TRUE(items.ok());
  const size_t off =
      static_cast<size_t>(items->payload.data() - r->bytes()->view().data());
  const size_t size = items->payload.size();
  const uint32_t poison = 999999;
  for (int i = 0; i < 4; ++i) {
    bytes[off + 8 + static_cast<size_t>(i)] =  // after the u64 count
        static_cast<char>(poison >> (8 * i));
  }
  const uint64_t checksum = Fnv1aHash(bytes.data() + off, size);
  for (int i = 0; i < 8; ++i) {
    bytes[off + size + static_cast<size_t>(i)] =
        static_cast<char>(checksum >> (8 * i));
  }
  const std::string bad_path = TestPath(name);
  WriteFileBytes(bad_path, bytes);
  return bad_path;
}

TEST(TopNStoreMmapTest, OutOfRangeItemIdIsRejectedAtLoad) {
  const TopNStore original = MakeStore();
  const std::string path = TestPath("store_poison_src.gts");
  ASSERT_TRUE(original.SaveFile(path).ok());
  const std::string bad = PoisonFirstItem(path, "store_poison.gts");
  auto mapped = TopNStore::LoadFile(bad);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("top-N store item id out of range"),
            std::string::npos)
      << mapped.status().ToString();
  std::ifstream is(bad, std::ios::binary);
  auto streamed = TopNStore::Load(is);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().message(), mapped.status().message());
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

#if defined(GANC_SERVE_BINARY) && defined(GANC_CLI_BINARY)

// Runs `argv` with stdin from `stdin_path` and stdout/stderr discarded.
// Returns the exit code, or -1 when a signal ended the process.
int RunTool(const std::vector<std::string>& argv,
            const std::string& stdin_path = "/dev/null") {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    const int in = open(stdin_path.c_str(), O_RDONLY);
    const int out = open("/dev/null", O_WRONLY);
    dup2(in, STDIN_FILENO);
    dup2(out, STDOUT_FILENO);
    dup2(out, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(TopNStoreMmapTest, ServeRefusesAStoreWithAnOutOfRangeId) {
  const std::string cache = TestPath("store_serve_tiny.gdc");
  const std::string model = TestPath("store_serve_psvd10.gam");
  const std::string store = TestPath("store_serve.gts");
  ASSERT_EQ(RunTool({GANC_CLI_BINARY, "cache-dataset", "--dataset=tiny",
                 "--out=" + cache}),
            0);
  ASSERT_EQ(RunTool({GANC_CLI_BINARY, "train", "--dataset-cache=" + cache,
                 "--arec=psvd10", "--seed=7", "--save-model=" + model}),
            0);
  ASSERT_EQ(RunTool({GANC_CLI_BINARY, "precompute-topn",
                 "--dataset-cache=" + cache, "--seed=7",
                 "--load-model=" + model, "--top-n=5", "--head-users=50",
                 "--out=" + store}),
            0);
  // Ask for the user whose list holds the poisoned id.
  auto good = TopNStore::LoadFile(store);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  UserId first = 0;
  while (good->ListFor(first).empty()) ++first;
  const std::string bad = PoisonFirstItem(store, "store_serve_bad.gts");
  const std::string requests = TestPath("store_serve_requests.txt");
  {
    std::ofstream os(requests);
    os << "TOPN user=" << first << " n=5\n";
  }
  const std::vector<std::string> serve = {
      GANC_SERVE_BINARY, "--dataset-cache=" + cache, "--seed=7",
      "--model=" + model, "--default-n=5", "--unbatched"};
  std::vector<std::string> with_good = serve;
  with_good.push_back("--store=" + store);
  EXPECT_EQ(RunTool(with_good, requests), 0);
  std::vector<std::string> with_bad = serve;
  with_bad.push_back("--store=" + bad);
  EXPECT_EQ(RunTool(with_bad, requests), 1);
  for (const std::string& p : {cache, model, store, bad, requests}) {
    std::remove(p.c_str());
  }
}

#endif  // GANC_SERVE_BINARY && GANC_CLI_BINARY

}  // namespace
}  // namespace ganc
