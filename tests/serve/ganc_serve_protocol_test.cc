// Serve protocol: parse/format unit coverage, plus an end-to-end round
// trip through a real `ganc_serve` subprocess — stdin/stdout and TCP —
// against an artifact trained by `ganc_cli` in this test. The binaries'
// paths arrive via compile definitions (see CMakeLists.txt); when tools
// are not built the subprocess tests skip themselves.

#include "serve/protocol.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/serialize.h"

namespace ganc {
namespace {

TEST(ServeProtocolTest, ParsesTopN) {
  Result<ServeRequest> r =
      ParseServeRequest("TOPN user=3 n=10 session=abc exclude=1,2,9");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->command, ServeCommand::kTopN);
  EXPECT_EQ(r->user, 3);
  EXPECT_EQ(r->n, 10);
  EXPECT_EQ(r->session, "abc");
  EXPECT_EQ(r->items, (std::vector<ItemId>{1, 2, 9}));
}

TEST(ServeProtocolTest, TopNDefaultsAreOptional) {
  Result<ServeRequest> r = ParseServeRequest("TOPN user=7");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->user, 7);
  EXPECT_EQ(r->n, 0);
  EXPECT_TRUE(r->session.empty());
  EXPECT_TRUE(r->items.empty());
}

TEST(ServeProtocolTest, ParsesConsumeStatsPingQuit) {
  Result<ServeRequest> c =
      ParseServeRequest("CONSUME session=s user=1 items=4,5");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->command, ServeCommand::kConsume);
  EXPECT_EQ(c->items, (std::vector<ItemId>{4, 5}));
  EXPECT_EQ(ParseServeRequest("STATS")->command, ServeCommand::kStats);
  EXPECT_EQ(ParseServeRequest("PING")->command, ServeCommand::kPing);
  EXPECT_EQ(ParseServeRequest("QUIT")->command, ServeCommand::kQuit);
}

TEST(ServeProtocolTest, ToleratesExtraWhitespaceAndCarriageReturn) {
  Result<ServeRequest> r = ParseServeRequest("  TOPN   user=2\tn=3\r");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->user, 2);
  EXPECT_EQ(r->n, 3);
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseServeRequest("").ok());
  EXPECT_FALSE(ParseServeRequest("NOPE user=1").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN").ok());             // missing user
  EXPECT_FALSE(ParseServeRequest("TOPN user=x").ok());      // bad number
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 bogus").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 k=5").ok());  // unknown key
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 items=2").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 exclude=1,,2").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 exclude=").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 exclude=1,2,").ok());
  EXPECT_FALSE(ParseServeRequest("CONSUME session=s user=1 items=").ok());
  EXPECT_FALSE(ParseServeRequest("CONSUME user=1 items=2").ok());
  EXPECT_FALSE(ParseServeRequest("CONSUME session=s user=1").ok());
  EXPECT_FALSE(ParseServeRequest("CONSUME session=s user=1 exclude=2").ok());
  EXPECT_FALSE(ParseServeRequest("PING now").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 session=").ok());
}

TEST(ServeProtocolTest, RejectsIntegersThatOverflow32Bits) {
  // 2^32 + 3 must not silently wrap onto user 3.
  EXPECT_FALSE(ParseServeRequest("TOPN user=4294967299").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 n=4294967296").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 exclude=9999999999999").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN user=99999999999999999999").ok());
  Result<ServeRequest> edge =
      ParseServeRequest("TOPN user=2147483647 n=2147483647");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->user, 2147483647);
}

TEST(ServeProtocolTest, FormatsResponses) {
  const std::vector<ItemId> items = {5, 1, 9};
  EXPECT_EQ(FormatTopNResponse(3, 5, items), "OK user=3 n=5 items=5,1,9");
  EXPECT_EQ(FormatTopNResponse(0, 2, {}), "OK user=0 n=2 items=");
  EXPECT_EQ(FormatOk("pong"), "OK pong");
  EXPECT_EQ(FormatOk(""), "OK");
  EXPECT_EQ(FormatError("bad\nthing"), "ERR bad thing");
}

TEST(ServeProtocolTest, ParsesPublishVersionShardsAndTopNV) {
  Result<ServeRequest> p = ParseServeRequest("PUBLISH path=/tmp/model.gam");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->command, ServeCommand::kPublish);
  EXPECT_EQ(p->path, "/tmp/model.gam");
  Result<ServeRequest> tv =
      ParseServeRequest("TOPNV user=4 n=3 exclude=7,8");
  ASSERT_TRUE(tv.ok()) << tv.status().ToString();
  EXPECT_EQ(tv->command, ServeCommand::kTopNV);
  EXPECT_EQ(tv->user, 4);
  EXPECT_EQ(tv->n, 3);
  EXPECT_EQ(tv->items, (std::vector<ItemId>{7, 8}));
  EXPECT_EQ(ParseServeRequest("VERSION")->command, ServeCommand::kVersion);
  EXPECT_EQ(ParseServeRequest("SHARDS")->command, ServeCommand::kShards);
}

TEST(ServeProtocolTest, RejectsMalformedSwapAndShardRequests) {
  EXPECT_FALSE(ParseServeRequest("PUBLISH").ok());       // missing path
  EXPECT_FALSE(ParseServeRequest("PUBLISH path=").ok()); // empty path
  EXPECT_FALSE(ParseServeRequest("PUBLISH user=1").ok());
  EXPECT_FALSE(ParseServeRequest("TOPN user=1 path=/x").ok());
  EXPECT_FALSE(ParseServeRequest("TOPNV").ok());         // missing user
  EXPECT_FALSE(ParseServeRequest("TOPNV path=/x").ok());
  EXPECT_FALSE(ParseServeRequest("VERSION now").ok());
  EXPECT_FALSE(ParseServeRequest("SHARDS all").ok());
}

TEST(ServeProtocolTest, ParsesMetricsMetricSnapAndTrace) {
  EXPECT_EQ(ParseServeRequest("METRICS")->command, ServeCommand::kMetrics);
  EXPECT_EQ(ParseServeRequest("METRICSNAP")->command,
            ServeCommand::kMetricSnap);
  Result<ServeRequest> bare = ParseServeRequest("TRACE");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->command, ServeCommand::kTrace);
  EXPECT_EQ(bare->n, 0);  // 0 = server default count
  Result<ServeRequest> five = ParseServeRequest("TRACE n=5");
  ASSERT_TRUE(five.ok());
  EXPECT_EQ(five->command, ServeCommand::kTrace);
  EXPECT_EQ(five->n, 5);
}

TEST(ServeProtocolTest, RejectsMalformedObservabilityRequests) {
  // TRACE takes only n=<count>; METRICS/METRICSNAP take nothing.
  EXPECT_FALSE(ParseServeRequest("TRACE user=1").ok());
  EXPECT_FALSE(ParseServeRequest("TRACE session=s").ok());
  EXPECT_FALSE(ParseServeRequest("TRACE items=1,2").ok());
  EXPECT_FALSE(ParseServeRequest("TRACE path=/x").ok());
  EXPECT_FALSE(ParseServeRequest("TRACE n=-1").ok());
  EXPECT_FALSE(ParseServeRequest("TRACE n=x").ok());
  EXPECT_FALSE(ParseServeRequest("METRICS now").ok());
  EXPECT_FALSE(ParseServeRequest("METRICSNAP all").ok());
}

TEST(ServeProtocolTest, FormatsFramedHeader) {
  EXPECT_EQ(FormatFramedHeader("metrics", 3), "OK metrics lines=3");
  EXPECT_EQ(FormatFramedHeader("traces", 0), "OK traces lines=0");
}

TEST(ServeProtocolTest, FormatsVersionedTopNResponse) {
  const std::vector<ItemId> items = {5, 1, 9};
  EXPECT_EQ(FormatVersionedTopNResponse(3, 5, 17, items),
            "OK user=3 n=5 version=17 items=5,1,9");
  EXPECT_EQ(FormatVersionedTopNResponse(0, 2, 1, {}),
            "OK user=0 n=2 version=1 items=");
}

#if defined(GANC_SERVE_BINARY) && defined(GANC_CLI_BINARY)

// Runs `argv` to completion, inheriting the parent's environment;
// returns the exit code.
int RunToCompletion(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv(args[0], args.data());
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
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

  /// Closes stdin (EOF -> clean shutdown) and reaps the child.
  int CloseAndWait() {
    close(out_fd_);
    out_fd_ = -1;
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  void Signal(int sig) {
    if (pid_ > 0) kill(pid_, sig);
  }

  /// Reaps the child without closing its stdin, polling up to
  /// `timeout_ms`. Returns the exit code, or -1 if the child did not
  /// exit in time (it is then left running for the destructor).
  int WaitExit(int timeout_ms) {
    for (int waited = 0; waited <= timeout_ms; waited += 10) {
      int status = 0;
      const pid_t reaped = waitpid(pid_, &status, WNOHANG);
      if (reaped == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      usleep(10 * 1000);
    }
    return -1;
  }

 private:
  pid_t pid_ = -1;
  FILE* in_ = nullptr;
  int out_fd_ = -1;
};

// Trains a tiny artifact once for all subprocess tests.
class GancServeSubprocessTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(testing::TempDir() + "/ganc_serve_test");
    (void)RunToCompletion({"/bin/mkdir", "-p", *dir_});
    cache_ = new std::string(*dir_ + "/tiny.gdc");
    model_ = new std::string(*dir_ + "/psvd10.gam");
    model2_ = new std::string(*dir_ + "/psvd100.gam");
    garbage_ = new std::string(*dir_ + "/garbage.gam");
    ASSERT_EQ(RunToCompletion({GANC_CLI_BINARY, "cache-dataset",
                               "--dataset=tiny", "--out=" + *cache_}),
              0);
    ASSERT_EQ(RunToCompletion({GANC_CLI_BINARY, "train",
                               "--dataset-cache=" + *cache_, "--arec=psvd10",
                               "--seed=7", "--save-model=" + *model_}),
              0);
    // A second artifact over the same dataset (swap target) and a file
    // that is not an artifact at all (rejection target).
    ASSERT_EQ(RunToCompletion({GANC_CLI_BINARY, "train",
                               "--dataset-cache=" + *cache_, "--arec=psvd100",
                               "--seed=7", "--save-model=" + *model2_}),
              0);
    FILE* junk = fopen(garbage_->c_str(), "w");
    ASSERT_NE(junk, nullptr);
    fputs("this is not a model artifact\n", junk);
    fclose(junk);
  }

  static std::vector<std::string> ServeFlags() {
    return {"--dataset-cache=" + *cache_, "--seed=7", "--model=" + *model_,
            "--default-n=5"};
  }

  static std::string* dir_;
  static std::string* cache_;
  static std::string* model_;
  static std::string* model2_;
  static std::string* garbage_;
};

std::string* GancServeSubprocessTest::dir_ = nullptr;
std::string* GancServeSubprocessTest::cache_ = nullptr;
std::string* GancServeSubprocessTest::model_ = nullptr;
std::string* GancServeSubprocessTest::model2_ = nullptr;
std::string* GancServeSubprocessTest::garbage_ = nullptr;

TEST_F(GancServeSubprocessTest, StdinRoundTripAndSessionFlow) {
  ServeProcess serve(ServeFlags());
  serve.Send("PING");
  EXPECT_EQ(serve.ReadLine(), "OK pong");
  serve.Send("TOPN user=3 n=5");
  const std::string base = serve.ReadLine();
  ASSERT_EQ(base.rfind("OK user=3 n=5 items=", 0), 0u) << base;
  // Extract the first two served items and consume them in a session.
  const std::string csv = base.substr(std::strlen("OK user=3 n=5 items="));
  const size_t c1 = csv.find(',');
  const size_t c2 = csv.find(',', c1 + 1);
  ASSERT_NE(c2, std::string::npos);
  const std::string first_two = csv.substr(0, c2);
  serve.Send("CONSUME session=s1 user=3 items=" + first_two);
  EXPECT_EQ(serve.ReadLine(), "OK consumed=2");
  serve.Send("TOPN user=3 n=5 session=s1");
  const std::string masked = serve.ReadLine();
  ASSERT_EQ(masked.rfind("OK user=3 n=5 items=", 0), 0u);
  // The consumed items must be gone and the explicit-exclude request
  // must serve the identical list.
  EXPECT_EQ(masked.find(first_two), std::string::npos);
  serve.Send("TOPN user=3 n=5 exclude=" + first_two);
  EXPECT_EQ(serve.ReadLine(), masked);
  // Determinism across repeats (second answer comes from the cache).
  serve.Send("TOPN user=3 n=5");
  EXPECT_EQ(serve.ReadLine(), base);
  serve.Send("NOT-A-COMMAND");
  EXPECT_EQ(serve.ReadLine().rfind("ERR ", 0), 0u);
  serve.Send("QUIT");
  EXPECT_EQ(serve.ReadLine(), "OK bye");
  EXPECT_EQ(serve.CloseAndWait(), 0);
}

TEST_F(GancServeSubprocessTest, TcpRoundTripOnEphemeralPort) {
  std::vector<std::string> flags = ServeFlags();
  flags.push_back("--port=0");
  ServeProcess serve(flags);
  const std::string listening = serve.ReadLine();
  ASSERT_EQ(listening.rfind("LISTENING port=", 0), 0u) << listening;
  const int port = std::stoi(listening.substr(std::strlen("LISTENING port=")));
  ASSERT_GT(port, 0);

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "TOPN user=1 n=5\nPING\n";
  ASSERT_EQ(write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  FILE* stream = fdopen(fd, "r");
  ASSERT_NE(stream, nullptr);
  char* line = nullptr;
  size_t cap = 0;
  ssize_t len = getline(&line, &cap, stream);
  ASSERT_GT(len, 0);
  std::string topn(line, static_cast<size_t>(len));
  EXPECT_EQ(topn.rfind("OK user=1 n=5 items=", 0), 0u) << topn;
  len = getline(&line, &cap, stream);
  ASSERT_GT(len, 0);
  EXPECT_EQ(std::string(line, static_cast<size_t>(len)), "OK pong\n");
  free(line);
  fclose(stream);

  // stdin EOF shuts the server down cleanly with the listener open.
  EXPECT_EQ(serve.CloseAndWait(), 0);
}

// Pulls the number after "version=" out of a response line.
uint64_t VersionIn(const std::string& line) {
  const size_t pos = line.find("version=");
  EXPECT_NE(pos, std::string::npos) << line;
  if (pos == std::string::npos) return 0;
  return strtoull(line.c_str() + pos + std::strlen("version="), nullptr, 10);
}

TEST_F(GancServeSubprocessTest, PublishSwapsSnapshotAndKeepsOldOnFailure) {
  ServeProcess serve(ServeFlags());
  serve.Send("VERSION");
  const std::string v_line = serve.ReadLine();
  ASSERT_EQ(v_line.rfind("OK version=", 0), 0u) << v_line;
  const uint64_t v1 = VersionIn(v_line);
  serve.Send("SHARDS");
  EXPECT_EQ(serve.ReadLine().rfind("OK shards=1 mode=inprocess users=", 0),
            0u);
  serve.Send("TOPNV user=3 n=5");
  const std::string before = serve.ReadLine();
  ASSERT_EQ(before.rfind("OK user=3 n=5 version=", 0), 0u) << before;
  EXPECT_EQ(VersionIn(before), v1);

  // A file that is not an artifact and a path that does not exist are
  // both rejected, and the old snapshot keeps serving bit-identically.
  serve.Send("PUBLISH path=" + *garbage_);
  EXPECT_EQ(serve.ReadLine().rfind("ERR ", 0), 0u);
  serve.Send("PUBLISH path=" + *dir_ + "/does_not_exist.gam");
  EXPECT_EQ(serve.ReadLine().rfind("ERR ", 0), 0u);
  serve.Send("TOPNV user=3 n=5");
  EXPECT_EQ(serve.ReadLine(), before);

  // A real artifact swaps in: monotonically newer version, and the
  // response is attributed to it.
  serve.Send("PUBLISH path=" + *model2_);
  const std::string pub = serve.ReadLine();
  ASSERT_EQ(pub.rfind("OK version=", 0), 0u) << pub;
  const uint64_t v2 = VersionIn(pub);
  EXPECT_GT(v2, v1);
  serve.Send("TOPNV user=3 n=5");
  const std::string after = serve.ReadLine();
  EXPECT_EQ(VersionIn(after), v2);

  // Re-publishing the same path loads a fresh snapshot: a new version
  // serving the identical bits.
  serve.Send("PUBLISH path=" + *model2_);
  const uint64_t v3 = VersionIn(serve.ReadLine());
  EXPECT_GT(v3, v2);
  serve.Send("TOPNV user=3 n=5");
  const std::string again = serve.ReadLine();
  EXPECT_EQ(VersionIn(again), v3);
  const size_t items_pos = after.find(" items=");
  ASSERT_NE(items_pos, std::string::npos);
  EXPECT_EQ(again.substr(again.find(" items=")), after.substr(items_pos));
  serve.Send("QUIT");
  EXPECT_EQ(serve.ReadLine(), "OK bye");
  EXPECT_EQ(serve.CloseAndWait(), 0);
}

// Rewrites the pipeline artifact at `path` into `out` with its first
// theta entry set to `theta0` and the theta section checksum re-sealed,
// so only the load's range check can reject it.
void WritePipelineWithFirstTheta(const std::string& path,
                                 const std::string& out, double theta0) {
  std::ifstream is(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  std::istringstream stream(bytes, std::ios::binary);
  auto r = ArtifactReader::OpenStream(stream);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ReadSectionExpect(1).ok());
  auto theta = r->ReadSectionExpect(2);
  ASSERT_TRUE(theta.ok());
  const size_t off =
      static_cast<size_t>(theta->payload.data() - r->bytes()->view().data());
  const size_t size = theta->payload.size();
  std::memcpy(bytes.data() + off + 8, &theta0, sizeof(theta0));  // after u64
  const uint64_t checksum = Fnv1aHash(bytes.data() + off, size);
  for (int i = 0; i < 8; ++i) {
    bytes[off + size + static_cast<size_t>(i)] =
        static_cast<char>(checksum >> (8 * i));
  }
  std::ofstream os(out, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(GancServeSubprocessTest, PipelineWithThetaOutsideUnitIntervalExits) {
  const std::string gap = *dir_ + "/dyn.gap";
  ASSERT_EQ(RunToCompletion({GANC_CLI_BINARY, "train",
                             "--dataset-cache=" + *cache_, "--arec=psvd10",
                             "--theta=g", "--crec=dyn", "--seed=7",
                             "--save-pipeline=" + gap}),
            0);
  const std::string half = *dir_ + "/dyn_theta_half.gap";
  const std::string bad = *dir_ + "/dyn_theta_1_5.gap";
  WritePipelineWithFirstTheta(gap, half, 0.5);
  WritePipelineWithFirstTheta(gap, bad, 1.5);
  const auto flags = [&](const std::string& pipeline) {
    return std::vector<std::string>{"--dataset-cache=" + *cache_, "--seed=7",
                                    "--pipeline=" + pipeline,
                                    "--default-n=5"};
  };
  ServeProcess served(flags(half));  // the patch alone keeps it loadable
  EXPECT_EQ(served.CloseAndWait(), 0);
  ServeProcess refused(flags(bad));
  EXPECT_NE(refused.CloseAndWait(), 0);
}

TEST_F(GancServeSubprocessTest, InProcessShardsMatchUnshardedByteForByte) {
  ServeProcess single(ServeFlags());
  std::vector<std::string> sharded_flags = ServeFlags();
  sharded_flags.push_back("--shards=3");
  ServeProcess sharded(sharded_flags);

  sharded.Send("SHARDS");
  EXPECT_EQ(sharded.ReadLine().rfind("OK shards=3 mode=inprocess users=", 0),
            0u);
  sharded.Send("VERSION");
  const std::string versions = sharded.ReadLine();
  ASSERT_EQ(versions.rfind("OK versions=", 0), 0u) << versions;
  // Three comma-separated per-shard versions.
  EXPECT_EQ(std::count(versions.begin(), versions.end(), ','), 2);

  for (int user = 0; user < 12; ++user) {
    const std::string req = "TOPN user=" + std::to_string(user) + " n=5";
    single.Send(req);
    sharded.Send(req);
    EXPECT_EQ(sharded.ReadLine(), single.ReadLine()) << req;
  }
  // Error responses must match too (out-of-range routes to the
  // fallback shard and falls through to the canonical service error).
  single.Send("TOPN user=999999 n=5");
  sharded.Send("TOPN user=999999 n=5");
  EXPECT_EQ(sharded.ReadLine(), single.ReadLine());

  // PUBLISH fans out to every shard.
  sharded.Send("PUBLISH path=" + *model2_);
  const std::string pub = sharded.ReadLine();
  EXPECT_EQ(pub.rfind("OK version=", 0), 0u) << pub;
  EXPECT_NE(pub.find(" shards=3"), std::string::npos) << pub;

  EXPECT_EQ(single.CloseAndWait(), 0);
  EXPECT_EQ(sharded.CloseAndWait(), 0);
}

TEST_F(GancServeSubprocessTest, SigtermShutsDownPromptlyWhileBlockedInAccept) {
  // The regression this pins down: a server parked in accept(2) used to
  // ignore SIGTERM until the next connection arrived. With the
  // self-pipe + poll loop it must exit quickly and cleanly.
  std::vector<std::string> flags = ServeFlags();
  flags.push_back("--port=0");
  flags.push_back("--daemon");
  ServeProcess serve(flags);
  const std::string listening = serve.ReadLine();
  ASSERT_EQ(listening.rfind("LISTENING port=", 0), 0u) << listening;

  const auto start = std::chrono::steady_clock::now();
  serve.Signal(SIGTERM);
  const int code = serve.WaitExit(5000);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(code, 0) << "clean shutdown expected";
  EXPECT_LT(elapsed_ms, 3000)
      << "SIGTERM must not wait for the next connection";
}

#else

TEST(GancServeSubprocessTest, SkippedWithoutToolBinaries) {
  GTEST_SKIP() << "ganc_serve/ganc_cli binaries not built";
}

#endif  // GANC_SERVE_BINARY && GANC_CLI_BINARY

}  // namespace
}  // namespace ganc
