// Multi-process router parity: a `ganc_serve --shards=3 --multiprocess`
// router (three forked --shard=k/N children driven over pipes) must be
// byte-identical to a single-process server for every user, for error
// responses, and across a live PUBLISH that swaps all three children.
// The committed frontend transcript must also read the same through
// every topology and through `ganc_cli replay`, and every topology
// must count each client line once. The binaries arrive via compile
// definitions; without them the suite skips itself.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ganc {
namespace {

#if defined(GANC_SERVE_BINARY) && defined(GANC_CLI_BINARY)

// Runs `argv` to completion, with stdin and stdout redirected to the
// given files when they are non-empty.
int RunToCompletion(const std::vector<std::string>& argv,
                    const std::string& stdin_path = "",
                    const std::string& stdout_path = "") {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    if (!stdin_path.empty()) {
      const int fd = open(stdin_path.c_str(), O_RDONLY);
      if (fd < 0 || dup2(fd, STDIN_FILENO) < 0) _exit(126);
    }
    if (!stdout_path.empty()) {
      const int fd =
          open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0) _exit(126);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// A ganc_serve child wired to the test through stdin/stdout pipes.
class ServeProcess {
 public:
  explicit ServeProcess(const std::vector<std::string>& extra_flags) {
    int to_child[2], from_child[2];
    EXPECT_EQ(pipe(to_child), 0);
    EXPECT_EQ(pipe(from_child), 0);
    pid_ = fork();
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      std::vector<std::string> argv = {GANC_SERVE_BINARY};
      argv.insert(argv.end(), extra_flags.begin(), extra_flags.end());
      std::vector<char*> args;
      for (const std::string& a : argv) {
        args.push_back(const_cast<char*>(a.c_str()));
      }
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    // Keep these ends out of later-forked siblings: a second
    // ServeProcess must not inherit (and hold open) this child's stdin
    // write end, or EOF-driven shutdown would deadlock.
    fcntl(to_child[1], F_SETFD, FD_CLOEXEC);
    fcntl(from_child[0], F_SETFD, FD_CLOEXEC);
    in_ = fdopen(from_child[0], "r");
    out_fd_ = to_child[1];
  }

  ~ServeProcess() {
    if (out_fd_ >= 0) close(out_fd_);
    if (in_ != nullptr) fclose(in_);
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
  }

  void Send(const std::string& line) {
    const std::string with_newline = line + "\n";
    ASSERT_EQ(write(out_fd_, with_newline.data(), with_newline.size()),
              static_cast<ssize_t>(with_newline.size()));
  }

  std::string ReadLine() {
    char* line = nullptr;
    size_t cap = 0;
    const ssize_t len = getline(&line, &cap, in_);
    std::string out;
    if (len > 0) {
      out.assign(line, static_cast<size_t>(len));
      while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
      }
    }
    free(line);
    return out;
  }

  int CloseAndWait() {
    close(out_fd_);
    out_fd_ = -1;
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  FILE* in_ = nullptr;
  int out_fd_ = -1;
};

class RouterProcessParityTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(testing::TempDir() + "/router_parity_test");
    (void)RunToCompletion({"/bin/mkdir", "-p", *dir_});
    cache_ = new std::string(*dir_ + "/tiny.gdc");
    model_a_ = new std::string(*dir_ + "/psvd10.gam");
    model_b_ = new std::string(*dir_ + "/psvd100.gam");
    ASSERT_EQ(RunToCompletion({GANC_CLI_BINARY, "cache-dataset",
                               "--dataset=tiny", "--out=" + *cache_}),
              0);
    ASSERT_EQ(RunToCompletion({GANC_CLI_BINARY, "train",
                               "--dataset-cache=" + *cache_, "--arec=psvd10",
                               "--seed=7", "--save-model=" + *model_a_}),
              0);
    ASSERT_EQ(RunToCompletion({GANC_CLI_BINARY, "train",
                               "--dataset-cache=" + *cache_, "--arec=psvd100",
                               "--seed=7", "--save-model=" + *model_b_}),
              0);
  }

  static std::vector<std::string> BaseFlags(const std::string& model) {
    return {"--dataset-cache=" + *cache_, "--seed=7", "--model=" + model,
            "--default-n=5"};
  }

  static std::string* dir_;
  static std::string* cache_;
  static std::string* model_a_;
  static std::string* model_b_;
};

std::string* RouterProcessParityTest::dir_ = nullptr;
std::string* RouterProcessParityTest::cache_ = nullptr;
std::string* RouterProcessParityTest::model_a_ = nullptr;
std::string* RouterProcessParityTest::model_b_ = nullptr;

TEST_F(RouterProcessParityTest, ThreeProcessShardsMatchSingleProcess) {
  ServeProcess single(BaseFlags(*model_a_));
  std::vector<std::string> router_flags = BaseFlags(*model_a_);
  router_flags.push_back("--shards=3");
  router_flags.push_back("--multiprocess");
  ServeProcess router(router_flags);

  // Topology introspection: the router exposes the fan-out and the
  // user-space bound.
  router.Send("SHARDS");
  const std::string shards = router.ReadLine();
  ASSERT_EQ(shards.rfind("OK shards=3 mode=multiprocess users=", 0), 0u)
      << shards;
  const int num_users = std::atoi(
      shards.c_str() + std::strlen("OK shards=3 mode=multiprocess users="));
  ASSERT_GT(num_users, 0);

  router.Send("VERSION");
  const std::string versions = router.ReadLine();
  ASSERT_EQ(versions.rfind("OK versions=", 0), 0u) << versions;

  router.Send("PING");
  EXPECT_EQ(router.ReadLine(), "OK pong");

  // Byte-for-byte parity over the entire user space, including the
  // versionless and session paths.
  for (int user = 0; user < num_users; ++user) {
    const std::string req = "TOPN user=" + std::to_string(user) + " n=5";
    single.Send(req);
    router.Send(req);
    const std::string expected = single.ReadLine();
    EXPECT_EQ(router.ReadLine(), expected) << req;
  }
  single.Send("TOPN user=999999 n=5");
  router.Send("TOPN user=999999 n=5");
  EXPECT_EQ(router.ReadLine(), single.ReadLine()) << "error parity";

  // Session state lives in the router's frontend, not the children:
  // consume then re-request and diff against the single process doing
  // the same.
  single.Send("CONSUME session=s user=1 items=0,1");
  router.Send("CONSUME session=s user=1 items=0,1");
  EXPECT_EQ(router.ReadLine(), single.ReadLine());
  single.Send("TOPN user=1 n=5 session=s");
  router.Send("TOPN user=1 n=5 session=s");
  EXPECT_EQ(router.ReadLine(), single.ReadLine());

  // STATS aggregates across children without forwarding breakage.
  router.Send("STATS");
  EXPECT_EQ(router.ReadLine().rfind("OK requests=", 0), 0u);

  EXPECT_EQ(single.CloseAndWait(), 0);
  EXPECT_EQ(router.CloseAndWait(), 0);
}

TEST_F(RouterProcessParityTest, LivePublishSwapsAllChildren) {
  std::vector<std::string> router_flags = BaseFlags(*model_a_);
  router_flags.push_back("--shards=3");
  router_flags.push_back("--multiprocess");
  ServeProcess router(router_flags);
  // Reference for the post-swap artifact: a single process that booted
  // from it.
  ServeProcess reference_b(BaseFlags(*model_b_));

  router.Send("SHARDS");
  const std::string shards = router.ReadLine();
  ASSERT_EQ(shards.rfind("OK shards=3", 0), 0u) << shards;
  const size_t users_pos = shards.find("users=");
  ASSERT_NE(users_pos, std::string::npos);
  const int num_users = std::atoi(shards.c_str() + users_pos + 6);
  ASSERT_GT(num_users, 0);

  // Rejection first: a bad path must leave every child serving A.
  router.Send("TOPN user=2 n=5");
  const std::string before = router.ReadLine();
  router.Send("PUBLISH path=" + *dir_ + "/missing.gam");
  EXPECT_EQ(router.ReadLine().rfind("ERR ", 0), 0u);
  router.Send("TOPN user=2 n=5");
  EXPECT_EQ(router.ReadLine(), before);

  // Live swap: all three children must flip to B.
  router.Send("PUBLISH path=" + *model_b_);
  const std::string pub = router.ReadLine();
  ASSERT_EQ(pub.rfind("OK version=", 0), 0u) << pub;
  EXPECT_NE(pub.find(" shards=3"), std::string::npos) << pub;
  for (int user = 0; user < num_users; ++user) {
    const std::string req = "TOPN user=" + std::to_string(user) + " n=5";
    reference_b.Send(req);
    router.Send(req);
    const std::string expected = reference_b.ReadLine();
    EXPECT_EQ(router.ReadLine(), expected) << req << " after publish";
  }

  EXPECT_EQ(reference_b.CloseAndWait(), 0);
  // Clean EOF shutdown reaps every child; a leak would hang this wait.
  EXPECT_EQ(router.CloseAndWait(), 0);
}

TEST_F(RouterProcessParityTest, FrontendTranscriptMatchesInEveryTopology) {
  // TOPN with exclude= and n=0; CONSUME of served items, of an
  // out-of-range item and for an out-of-range user; a session TOPN; an
  // unknown verb; STATS. Unbatched and uncached, so STATS is exact.
  const std::string requests =
      std::string(GANC_TESTDATA_DIR) + "/serve/frontend_requests.txt";
  std::vector<std::string> serve = {GANC_SERVE_BINARY};
  for (const std::string& flag : BaseFlags(*model_a_)) serve.push_back(flag);
  serve.push_back("--unbatched");
  serve.push_back("--cache-capacity=0");
  std::vector<std::string> sharded = serve;
  sharded.push_back("--shards=3");
  std::vector<std::string> multi = sharded;
  multi.push_back("--multiprocess");
  const std::vector<std::string> replay = {
      GANC_CLI_BINARY,  "replay",     "--dataset-cache=" + *cache_,
      "--seed=7",       "--top-n=5",  "--load-model=" + *model_a_,
      "--requests=" + requests};

  const std::map<std::string, std::vector<std::string>> runs = {
      {"single", serve},
      {"shards3", sharded},
      {"multiprocess", multi},
      {"replay", replay}};
  std::map<std::string, std::string> outputs;
  for (const auto& [name, argv] : runs) {
    const std::string out = *dir_ + "/frontend_" + name + ".txt";
    ASSERT_EQ(RunToCompletion(argv, requests, out), 0) << name;
    outputs[name] = ReadFile(out);
  }
  const std::string& expected = outputs["single"];
  const std::string lines = ReadFile(requests);
  EXPECT_EQ(std::count(expected.begin(), expected.end(), '\n'),
            std::count(lines.begin(), lines.end(), '\n'));
  EXPECT_NE(expected.find("\nOK requests=3 "), std::string::npos)
      << expected;
  for (const auto& [name, output] : outputs) {
    EXPECT_EQ(output, expected) << name;
  }
}

// Sends three TOPN lines and a METRICS scrape; returns the exposition's
// frontend line series.
std::map<std::string, std::string> FrontendSeries(ServeProcess& serve) {
  for (int user = 1; user <= 3; ++user) {
    serve.Send("TOPN user=" + std::to_string(user));
    EXPECT_EQ(serve.ReadLine().rfind("OK user=", 0), 0u);
  }
  serve.Send("METRICS");
  const std::string header = serve.ReadLine();
  EXPECT_EQ(header.rfind("OK metrics lines=", 0), 0u) << header;
  const int lines = std::atoi(header.c_str() + std::strlen("OK metrics lines="));
  std::map<std::string, std::string> series;
  for (int i = 0; i < lines; ++i) {
    const std::string line = serve.ReadLine();
    const size_t space = line.find(' ');
    const std::string name = line.substr(0, space);
    if (name == "serve_lines_total" || name == "serve_parse_errors_total" ||
        name == "serve_line_ns_count") {
      series[name] = line.substr(space + 1);
    }
  }
  return series;
}

TEST_F(RouterProcessParityTest, FrontendCountsEachLineOnceInEveryTopology) {
  // The METRICS line itself is counted before the scrape renders, but
  // its latency is observed only after.
  const std::map<std::string, std::string> expected = {
      {"serve_lines_total", "4"},
      {"serve_parse_errors_total", "0"},
      {"serve_line_ns_count", "3"}};
  std::vector<std::string> sharded = BaseFlags(*model_a_);
  sharded.push_back("--shards=3");
  std::vector<std::string> multi = sharded;
  multi.push_back("--multiprocess");
  for (const auto& flags : {BaseFlags(*model_a_), sharded, multi}) {
    ServeProcess serve(flags);
    EXPECT_EQ(FrontendSeries(serve), expected) << flags.back();
    EXPECT_EQ(serve.CloseAndWait(), 0);
  }
}

#else

TEST(RouterProcessParityTest, SkippedWithoutToolBinaries) {
  GTEST_SKIP() << "ganc_serve/ganc_cli binaries not built";
}

#endif  // GANC_SERVE_BINARY && GANC_CLI_BINARY

}  // namespace
}  // namespace ganc
