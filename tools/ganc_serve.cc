// ganc_serve: the online serving frontend.
//
// Loads a trained artifact into the sharded serving tier
// (src/serve/shard_router.h) and answers requests over the
// newline-delimited protocol (src/serve/protocol.h, grammar in
// docs/SERVING.md) on stdin/stdout and, with --port, on a POSIX TCP
// socket (one thread per connection). Every line, from any input and in
// every topology, goes through the one dispatcher in
// src/serve/frontend.h, which also holds the session registry. This
// file is transport and process plumbing only. Dependency free: nothing
// beyond the C++ standard library and POSIX.
//
//   ganc_cli cache-dataset --dataset=tiny --out=tiny.gdc
//   ganc_cli train --dataset-cache=tiny.gdc --arec=psvd10 --seed=7 \
//            --save-model=psvd10.gam
//   ganc_serve --dataset-cache=tiny.gdc --seed=7 --model=psvd10.gam \
//              --default-n=5 [--port=0] [--store=head.gts] [--shards=3]
//
// Topologies:
//   * default            one in-process shard (the PR 5 shape).
//   * --shards=N         N in-process ServiceShards behind a ShardRouter;
//                        users are partitioned by the stable shard hash.
//   * --shards=N --multiprocess
//                        forks N `ganc_serve --shard=k/N` children of
//                        this same binary (src/serve/process_shard.h)
//                        and routes stdin/TCP traffic to them over pipes
//                        speaking this very protocol (each child prints
//                        READY on stdout before the router starts
//                        serving).
//   * --shard=k/N        child mode: serve only partition k (requests
//                        for users owned by other shards are rejected).
//
// Zero-downtime swap: the PUBLISH verb (and --watch, which polls the
// artifact path for stable changes) loads a replacement artifact in the
// background, validates its dataset fingerprint, and atomically flips
// the per-shard snapshot — in-flight requests finish on the old
// snapshot, the version-keyed result cache invalidates implicitly, no
// request is dropped.
//
// The process serves stdin until EOF or a QUIT line, then dumps the
// request/hit-rate/latency counters to stderr. `--port=0` binds an
// ephemeral port; the assigned port is announced on stdout as
// "LISTENING port=<p>" before request processing starts (the subprocess
// tests key on this). `--daemon` detaches the lifetime from stdin for
// TCP-only deployments (systemd/containers close stdin at launch):
// the listener serves until SIGINT/SIGTERM, which also shut down
// cleanly with the stats dump. Stop signals are delivered through a
// self-pipe so a thread blocked in accept(2) exits promptly.

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "data/loader.h"
#include "data/split.h"
#include "serve/frontend.h"
#include "serve/process_shard.h"
#include "serve/recommendation_service.h"
#include "serve/service_shard.h"
#include "serve/shard_router.h"
#include "serve/snapshot_swap.h"
#include "serve/topn_store.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/timer.h"

using namespace ganc;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: ganc_serve --model=PATH|--pipeline=PATH [flags]\n"
      "\n"
      "snapshot (same data flags as ganc_cli, split must match training):\n"
      "    --dataset-cache=PATH | --ratings-file=PATH | --dataset=NAME\n"
      "    [--kappa=0.5] [--seed=42]\n"
      "    --model=PATH | --pipeline=PATH   (artifact to serve)\n"
      "    [--store=PATH]     (precomputed top-N store artifact; sharded\n"
      "                        servers attach each shard's segment)\n"
      "    [--factor-precision=fp64|fp32|int8]  (compact the snapshot's\n"
      "                        factor tables after load; fp64 = keep the\n"
      "                        artifact's own precision)\n"
      "    [--mmap=true]      (open v3 dataset-cache/model/store\n"
      "                        artifacts as zero-copy file mappings;\n"
      "                        --mmap=false forces eager stream loads.\n"
      "                        Mapped serving wants --kappa=1, which\n"
      "                        skips the materializing split rebuild)\n"
      "\n"
      "serving:\n"
      "    [--default-n=10]   (list length when a request omits n=)\n"
      "    [--workers=1] [--batch-wait-us=200] [--cache-capacity=4096]\n"
      "    [--unbatched]      (one-request-at-a-time baseline path)\n"
      "    [--port=N]         (also serve TCP; 0 = ephemeral, the chosen\n"
      "                        port is announced as LISTENING port=N)\n"
      "    [--daemon]         (with --port: stdin EOF does not stop the\n"
      "                        server; run until SIGINT/SIGTERM)\n"
      "\n"
      "sharding / snapshot swap:\n"
      "    [--shards=N]       (partition users across N in-process shards)\n"
      "    [--multiprocess]   (with --shards: fork N --shard=k/N children\n"
      "                        and route to them over pipes)\n"
      "    [--shard=k/N]      (child mode: serve partition k of N only)\n"
      "    [--watch]          (poll the artifact path and PUBLISH stable\n"
      "                        changes automatically)\n"
      "    [--watch-interval-ms=1000]\n"
      "\n"
      "protocol (one request per line; see docs/SERVING.md):\n"
      "    TOPN user=3 [n=10] [session=abc] [exclude=1,2]\n"
      "    TOPNV user=3 ...   (response carries the snapshot version)\n"
      "    CONSUME session=abc user=3 items=4,5\n"
      "    PUBLISH path=new.gam | VERSION | SHARDS\n"
      "    STATS | METRICS | METRICSNAP | TRACE [n=16] | PING | QUIT\n");
}

// SIGINT/SIGTERM request a clean shutdown (stats still dumped) — the
// stop path for TCP-only deployments whose stdin is closed at launch.
// The handler also writes to a self-pipe so poll()-based waits (the
// accept loop, the daemon wait) wake immediately instead of riding out
// a blocking syscall; the pipe is written once and never drained, so
// every poller sees it readable forever after.
volatile std::sig_atomic_t g_stop_requested = 0;
int g_stop_pipe[2] = {-1, -1};

void HandleStopSignal(int /*sig*/) {
  g_stop_requested = 1;
  if (g_stop_pipe[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = write(g_stop_pipe[1], &byte, 1);
  }
}

// Installs the stop handler *without* SA_RESTART: a getline() blocked
// on stdin must return EINTR on SIGTERM rather than resume, or a
// daemonless server could only be stopped by closing its stdin.
void InstallStopHandlers() {
  if (pipe(g_stop_pipe) != 0) {
    g_stop_pipe[0] = g_stop_pipe[1] = -1;
  }
  struct sigaction sa{};
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);  // a dead shard child must not kill us
}

// One live TCP connection. `mu` serializes the socket's close against
// the shutdown path: the serving thread fcloses under it, StopListener
// shutdown()s under it, so a shutdown can never hit a recycled fd and
// an idle client can never block server exit.
struct Connection {
  std::mutex mu;
  int fd = -1;
  bool closed = false;
  std::thread thread;
};

// Serves one TCP connection until EOF/QUIT. Reads are buffered through
// a FILE*, responses go out with raw write() — one stdio stream must
// not interleave reads and writes on a socket.
void ServeConnection(ServeFrontend& frontend, Connection& conn) {
  FILE* in = fdopen(conn.fd, "r");
  if (in == nullptr) {
    std::lock_guard<std::mutex> lock(conn.mu);
    close(conn.fd);
    conn.closed = true;
    return;
  }
  char* line = nullptr;
  size_t cap = 0;
  ssize_t len;
  bool quit = false;
  while (!quit && (len = getline(&line, &cap, in)) != -1) {
    while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
      line[--len] = '\0';
    }
    std::string response = frontend.HandleLine(
        std::string_view(line, static_cast<size_t>(len)), &quit);
    response.push_back('\n');
    if (!WriteAll(conn.fd, response)) break;
  }
  free(line);
  std::lock_guard<std::mutex> lock(conn.mu);
  fclose(in);  // closes conn.fd
  conn.closed = true;
}

// TCP listener state shared with the accept thread.
struct Listener {
  int fd = -1;
  std::thread accept_thread;
  std::mutex mu;
  std::vector<std::unique_ptr<Connection>> connections;
  std::atomic<bool> stopping{false};
};

// Binds 127.0.0.1:port (0 = ephemeral); returns the bound port or an
// error.
Result<int> StartListener(Listener& listener, ServeFrontend& frontend,
                          int port) {
  listener.fd = socket(AF_INET, SOCK_STREAM, 0);
  if (listener.fd < 0) return Status::IOError("socket() failed");
  const int one = 1;
  setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(listener.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError("bind() failed: " + std::string(strerror(errno)));
  }
  if (listen(listener.fd, 16) < 0) {
    return Status::IOError("listen() failed");
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) < 0) {
    return Status::IOError("getsockname() failed");
  }
  const int bound = ntohs(addr.sin_port);
  listener.accept_thread = std::thread([&listener, &frontend] {
    for (;;) {
      // poll() on {listener, stop pipe} instead of blocking straight
      // into accept(2): a SIGTERM wakes this thread immediately even
      // when no client ever connects again (the old accept-blocked
      // loop could only be unblocked by the listener close racing the
      // signal handler's context).
      pollfd fds[2] = {{listener.fd, POLLIN, 0}, {g_stop_pipe[0], POLLIN, 0}};
      const nfds_t nfds = g_stop_pipe[0] >= 0 ? 2 : 1;
      const int rc = poll(fds, nfds, -1);
      if (rc < 0) {
        if (errno == EINTR && g_stop_requested == 0 &&
            !listener.stopping.load()) {
          continue;
        }
        return;
      }
      if (nfds == 2 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP))) {
        return;  // stop requested
      }
      if (listener.stopping.load()) return;
      if ((fds[0].revents & POLLIN) == 0) return;  // listener closed
      const int fd = accept(listener.fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener closed during shutdown
      }
      if (listener.stopping.load() || g_stop_requested != 0) {
        close(fd);
        return;
      }
      std::lock_guard<std::mutex> lock(listener.mu);
      // Reap finished connections so a long-running server holds
      // resources proportional to *concurrent* clients, not total ones.
      std::erase_if(listener.connections,
                    [](const std::unique_ptr<Connection>& c) {
                      std::lock_guard<std::mutex> conn_lock(c->mu);
                      if (!c->closed) return false;
                      c->thread.join();
                      return true;
                    });
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      Connection& ref = *conn;
      ref.thread = std::thread(
          [&frontend, &ref] { ServeConnection(frontend, ref); });
      listener.connections.push_back(std::move(conn));
    }
  });
  return bound;
}

void StopListener(Listener& listener) {
  if (listener.fd < 0) return;
  listener.stopping.store(true);
  shutdown(listener.fd, SHUT_RDWR);
  close(listener.fd);
  if (listener.accept_thread.joinable()) listener.accept_thread.join();
  std::lock_guard<std::mutex> lock(listener.mu);
  for (const std::unique_ptr<Connection>& conn : listener.connections) {
    // Unblock serving threads stuck in getline() on idle clients; the
    // per-connection mutex guarantees the fd has not been recycled.
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    if (!conn->closed) shutdown(conn->fd, SHUT_RDWR);
  }
  for (const std::unique_ptr<Connection>& conn : listener.connections) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

// Shutdown report: one topology/uptime header, then the same metrics
// text exposition the METRICS verb serves — one renderer, one format,
// whether scraped live or read off a dead server's stderr. Must run
// while children are still alive (it scrapes them over METRICSNAP).
void DumpStats(ShardRouter& router, const ServeFrontend& frontend,
               const std::string& topology, double uptime_ms) {
  std::fprintf(stderr, "--- ganc_serve shutdown (%s, %.1f ms up, %zu "
               "sessions) ---\n",
               topology.c_str(), uptime_ms, frontend.num_sessions());
  Result<MetricsSnapshot> snap = router.SnapshotMetrics();
  if (!snap.ok()) {
    std::fprintf(stderr, "metrics: %s\n", snap.status().ToString().c_str());
    return;
  }
  std::fputs(snap->RenderExposition().c_str(), stderr);
}

// Parses --shard=k/N. Returns false on malformed input.
bool ParseShardSpec(const std::string& text, ShardSpec* spec) {
  const size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long index = strtoul(text.c_str(), &end, 10);
  if (end != text.c_str() + slash) return false;
  const unsigned long total = strtoul(text.c_str() + slash + 1, &end, 10);
  if (*end != '\0' || total == 0 || index >= total) return false;
  spec->index = index;
  spec->num_shards = total;
  return true;
}

// Rebuilds the flag list a --shard=k/N child needs: the snapshot/data/
// service flags pass through verbatim; topology, port, and watcher
// flags are the router's own business.
std::vector<std::string> ChildArgs(const Flags& flags) {
  static const char* kForward[] = {
      "dataset",       "ratings-file",  "delimiter",
      "skip-header",   "dataset-cache", "kappa",
      "seed",          "model",         "pipeline",
      "store",         "workers",       "batch-wait-us",
      "cache-capacity", "default-n",    "unbatched",
      "factor-precision", "mmap"};
  std::vector<std::string> args;
  for (const char* name : kForward) {
    if (!flags.Has(name)) continue;
    const std::string value = flags.GetString(name, "");
    args.push_back(value.empty() ? "--" + std::string(name)
                                 : "--" + std::string(name) + "=" + value);
  }
  return args;
}

int Run(const Flags& flags) {
  const std::string model_path = flags.GetString("model", "");
  const std::string pipeline_path = flags.GetString("pipeline", "");
  if ((model_path.empty() == pipeline_path.empty())) {
    std::fprintf(stderr,
                 "exactly one of --model / --pipeline is required\n");
    Usage();
    return 2;
  }
  auto kappa = flags.GetDouble("kappa", 0.5);
  auto seed = flags.GetInt("seed", 42);
  auto port_flag = flags.GetInt("port", -1);
  auto workers = flags.GetInt("workers", 1);
  auto batch_wait = flags.GetInt("batch-wait-us", 200);
  auto cache_capacity = flags.GetInt("cache-capacity", 4096);
  auto default_n = flags.GetInt("default-n", 10);
  auto num_shards = flags.GetInt("shards", 1);
  auto watch_interval = flags.GetInt("watch-interval-ms", 1000);
  if (!kappa.ok() || !seed.ok() || !port_flag.ok() || !workers.ok() ||
      !batch_wait.ok() || !cache_capacity.ok() || !default_n.ok() ||
      !num_shards.ok() || !watch_interval.ok() || *cache_capacity < 0 ||
      *port_flag > 65535 || *num_shards < 1 || *watch_interval < 1) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 2;
  }
  const bool multiprocess = flags.GetBool("multiprocess", false);
  const std::string shard_flag = flags.GetString("shard", "");
  ShardSpec child_spec;
  if (!shard_flag.empty() && !ParseShardSpec(shard_flag, &child_spec)) {
    std::fprintf(stderr, "bad --shard=%s (want k/N with k < N)\n",
                 shard_flag.c_str());
    return 2;
  }
  if (!shard_flag.empty() && (*num_shards != 1 || multiprocess)) {
    std::fprintf(stderr, "--shard is a child mode; it excludes --shards/"
                         "--multiprocess\n");
    return 2;
  }
  if (multiprocess && *num_shards < 2) {
    std::fprintf(stderr, "--multiprocess requires --shards >= 2\n");
    return 2;
  }

  // The shared resolver guarantees the serving process binds the same
  // data the training run did for the same flags.
  Result<RatingDataset> dataset = LoadDatasetFromFlags(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "load: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  // kappa = 1 means "train on everything": serve the loaded dataset
  // directly instead of rebuilding it through the splitter. Besides
  // skipping an O(nnz) copy, this is the path that keeps a mapped
  // --dataset-cache zero-copy — a split rebuild would materialize the
  // whole thing eagerly.
  RatingDataset train;
  if (*kappa == 1.0) {
    train = std::move(*dataset);
  } else {
    Result<TrainTestSplit> split = PerUserRatioSplit(
        *dataset,
        {.train_ratio = *kappa, .seed = static_cast<uint64_t>(*seed)});
    if (!split.ok()) {
      std::fprintf(stderr, "split: %s\n", split.status().ToString().c_str());
      return 1;
    }
    train = std::move(split->train);
  }

  ServiceConfig config;
  config.num_workers = static_cast<int>(*workers);
  config.max_batch_wait_us = static_cast<int>(*batch_wait);
  config.cache_capacity = static_cast<size_t>(*cache_capacity);
  config.micro_batching = !flags.GetBool("unbatched", false);
  config.default_n = static_cast<int>(*default_n);
  Result<FactorPrecision> precision = ParseFactorPrecision(
      flags.GetString("factor-precision", "fp64"));
  if (!precision.ok()) {
    std::fprintf(stderr, "%s\n", precision.status().ToString().c_str());
    return 2;
  }
  config.factor_precision = *precision;
  config.mmap_artifacts = flags.GetBool("mmap", true);

  const SnapshotKind kind =
      model_path.empty() ? SnapshotKind::kPipeline : SnapshotKind::kModel;
  const std::string& artifact_path =
      model_path.empty() ? pipeline_path : model_path;

  InstallStopHandlers();

  WallTimer up_timer;
  std::unique_ptr<ShardRouter> router;
  FrontendRole role = FrontendRole::kInProcess;
  std::string topology;
  if (multiprocess) {
    // The children run this same binary with the data/service flags.
    std::vector<std::string> argv = ChildArgs(flags);
    argv.insert(argv.begin(), "/proc/self/exe");
    const size_t n = static_cast<size_t>(*num_shards);
    std::vector<std::unique_ptr<ShardBackend>> children;
    for (size_t k = 0; k < n; ++k) {
      Result<std::unique_ptr<ProcessShard>> child =
          ProcessShard::Spawn(argv, ShardSpec{k, n});
      if (!child.ok()) {
        std::fprintf(stderr, "spawn: %s\n",
                     child.status().ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "router: %s\n", (*child)->ready_line().c_str());
      children.push_back(std::move(child).value());
    }
    router = ShardRouter::FromBackends(std::move(children), train.num_users(),
                                       train.num_items(), config.default_n)
                 .value();
    role = FrontendRole::kMultiProcess;
    topology = std::to_string(n) + " shards, multiprocess";
  } else if (!shard_flag.empty()) {
    Result<std::unique_ptr<ServiceShard>> shard =
        ServiceShard::Load(kind, artifact_path, train, child_spec, config);
    if (!shard.ok()) {
      std::fprintf(stderr, "snapshot: %s\n",
                   shard.status().ToString().c_str());
      return 1;
    }
    std::vector<std::unique_ptr<ShardBackend>> own;
    own.push_back(std::move(shard).value());
    router = ShardRouter::FromBackends(std::move(own), train.num_users(),
                                       train.num_items(), config.default_n)
                 .value();
    role = FrontendRole::kShardChild;
    topology = "shard " + shard_flag;
  } else {
    Result<std::unique_ptr<ShardRouter>> loaded =
        ShardRouter::Load(kind, artifact_path, train,
                          static_cast<size_t>(*num_shards), config);
    if (!loaded.ok()) {
      std::fprintf(stderr, "snapshot: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    router = std::move(loaded).value();
    topology = std::to_string(*num_shards) + " in-process shard(s)";
  }

  // Children attach their own segments from the forwarded --store.
  const std::string store_path = flags.GetString("store", "");
  if (!store_path.empty() && !multiprocess) {
    Result<TopNStore> store =
        TopNStore::LoadFileAuto(store_path, config.mmap_artifacts);
    if (!store.ok()) {
      std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
      return 1;
    }
    const Status attached = router->AttachStore(
        std::make_shared<const TopNStore>(std::move(store).value()));
    if (!attached.ok()) {
      std::fprintf(stderr, "store: %s\n", attached.ToString().c_str());
      return 1;
    }
  }

  if (multiprocess) {
    std::fprintf(stderr, "routing %d users across %zu shard processes\n",
                 router->num_users(), router->num_shards());
  } else {
    std::fprintf(
        stderr,
        "serving %s (%s, snapshot v%llu) in %.1f ms; %d users, %d items\n",
        router->source().c_str(), topology.c_str(),
        static_cast<unsigned long long>(router->max_version()),
        up_timer.ElapsedMillis(), router->num_users(), router->num_items());
  }

  std::unique_ptr<ArtifactWatcher> watcher;
  if (flags.GetBool("watch", false)) {
    watcher = std::make_unique<ArtifactWatcher>(
        artifact_path,
        [&router](const std::string& path) {
          uint64_t max_v = 0;
          const Status s = router->Publish(path, &max_v);
          if (s.ok()) {
            std::fprintf(stderr, "watch: published %s (version %llu)\n",
                         path.c_str(),
                         static_cast<unsigned long long>(max_v));
          } else {
            std::fprintf(stderr, "watch: rejected %s: %s\n", path.c_str(),
                         s.ToString().c_str());
          }
          return s;
        },
        static_cast<int>(*watch_interval));
    watcher->Start();
  }

  const bool daemon = flags.GetBool("daemon", false);
  if (daemon && *port_flag < 0) {
    std::fprintf(stderr, "--daemon requires --port\n");
    return 2;
  }
  ServeFrontend frontend(*router, role, child_spec);
  Listener listener;
  if (*port_flag >= 0) {
    Result<int> bound = StartListener(listener, frontend,
                                      static_cast<int>(*port_flag));
    if (!bound.ok()) {
      std::fprintf(stderr, "listen: %s\n", bound.status().ToString().c_str());
      return 1;
    }
    std::printf("LISTENING port=%d\n", *bound);
    std::fflush(stdout);
  }

  // Child shards announce readiness on stdout — the parent router (and
  // the subprocess tests) block on this line before sending traffic.
  if (role == FrontendRole::kShardChild) {
    std::printf("READY shard=%zu/%zu version=%llu source=%s\n",
                child_spec.index, child_spec.num_shards,
                static_cast<unsigned long long>(router->max_version()),
                router->source().c_str());
    std::fflush(stdout);
  }

  // stdin loop on the main thread.
  char* line = nullptr;
  size_t cap = 0;
  ssize_t len;
  bool quit = false;
  while (!quit && g_stop_requested == 0 &&
         (len = getline(&line, &cap, stdin)) != -1) {
    while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
      line[--len] = '\0';
    }
    const std::string response = frontend.HandleLine(
        std::string_view(line, static_cast<size_t>(len)), &quit);
    std::printf("%s\n", response.c_str());
    std::fflush(stdout);
  }
  free(line);

  // Daemon mode (--daemon): stdin EOF does not stop the TCP listener —
  // the launch environment may close stdin outright (systemd,
  // containers) — serving continues until SIGINT/SIGTERM. A stdin QUIT
  // still shuts down immediately, and without --daemon EOF keeps its
  // pipe-friendly meaning: drain requests, shut down.
  if (!quit && daemon && listener.fd >= 0) {
    while (g_stop_requested == 0) {
      if (g_stop_pipe[0] >= 0) {
        pollfd pfd{g_stop_pipe[0], POLLIN, 0};
        poll(&pfd, 1, 500);
      } else {
        const timespec tick{0, 100 * 1000 * 1000};  // 100 ms
        nanosleep(&tick, nullptr);
      }
    }
  }

  if (watcher) watcher->Stop();
  StopListener(listener);
  // The shutdown report scrapes child processes, so it runs before the
  // router's destructor stops them.
  DumpStats(*router, frontend, topology, up_timer.ElapsedMillis());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> known = {
      "dataset",        "ratings-file", "delimiter",   "skip-header",
      "dataset-cache",  "kappa",        "seed",        "model",
      "pipeline",       "store",        "port",        "workers",
      "batch-wait-us",  "cache-capacity", "default-n", "unbatched",
      "factor-precision", "daemon",     "mmap",        "shards",
      "multiprocess",   "shard",        "watch",       "watch-interval-ms",
      "help"};
  Result<Flags> flags = Flags::Parse(argc, argv, known);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    Usage();
    return 2;
  }
  if (flags->GetBool("help", false)) {
    Usage();
    return 0;
  }
  if (!flags->positional().empty()) {
    std::fprintf(stderr, "ganc_serve takes no positional arguments\n");
    Usage();
    return 2;
  }
  return Run(*flags);
}
