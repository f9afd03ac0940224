// Shared helpers for bench_e2e: clocks, order statistics, digests, the
// result record and its JSON rendering, and the host fingerprint.

#ifndef GANC_BENCH_E2E_COMMON_H_
#define GANC_BENCH_E2E_COMMON_H_

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "recommender/factor_kernels.h"
#include "util/status.h"

namespace ganc::e2e {

/// Fatal benchmark error: thrown, caught in main, so every RAII owner
/// (server processes, sockets, work directories) cleans up on the way.
[[noreturn]] inline void Die(const std::string& what) {
  throw std::runtime_error(what);
}

inline void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

template <typename T>
T Check(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

/// Seconds on the steady clock since the first call in this process.
inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Nearest-rank quantile (an observed sample, never an interpolation):
/// the smallest value with at least q of the samples at or below it.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Median as the mean of the two middle samples for even counts.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// 64-bit FNV-1a, folded incrementally over a response stream.
struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= '\n';
    h *= 0x100000001b3ULL;
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

/// Full-precision number: a metric is printed with every digit it was
/// measured with.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds one JSON object, keys in insertion order.
class Json {
 public:
  Json& Num(std::string_view key, double v) { return Raw(key, JsonNumber(v)); }
  Json& Int(std::string_view key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(std::string_view key, std::string_view v) {
    return Raw(key, JsonString(v));
  }
  Json& Bool(std::string_view key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    body_ += JsonString(key) + ": ";
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Command-line options of one invocation.
struct Options {
  std::string workload;  ///< empty = every workload in turn
  uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of one run
  bool trace = false;     ///< per-layer run (spans, in-process replay)
  bool smoke = false;     ///< tiny corpus, short phases, every path
  std::string results_dir = ".bench_build/e2e-results";
  /// Default: results_dir/spans-<workload>-s<seed>.jsonl.
  std::string spans_path;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string phase;    ///< internal: "offline-child"
  std::string workdir;  ///< internal: the offline child's input directory
};

/// Input sizes and phase lengths, fixed by --seconds and --smoke only,
/// so every run of one configuration does the same work. The defaults
/// are the --seconds 10 values.
struct Sizes {
  int64_t serve_users = 100000;
  int32_t store_users = 5000;
  int32_t offline_users = 6040;  ///< MovieLens1MSpec's own, paper-calibrated
  double warmup_s = 1.0;
  double open_s = 20.0 / 3.0;  ///< open-loop phase at the nominal rate
  double sat_s = 10.0 / 3.0;   ///< closed-loop saturation phase
  int launches = 9;     ///< cold server launches for setup_s
  int serve_fits = 3;   ///< PSVD10 fits behind a serve workload's train_s
  int setup_reps = 9;   ///< offline load + split repetitions
  int train_reps = 5;   ///< offline fit + create + save repetitions
  int rerank_reps = 30; ///< offline RecommendAll repetitions
};

inline Sizes SizesFor(const Options& o) {
  Sizes s;
  if (o.smoke) {
    s.serve_users = 4000;
    s.store_users = 300;
    s.offline_users = 1500;
    s.warmup_s = 0.3;
    s.open_s = 1.0;
    s.sat_s = 0.5;
    s.launches = 2;
    s.serve_fits = 1;
    s.setup_reps = 2;
    s.train_reps = 2;
    s.rerank_reps = 2;
    return s;
  }
  // Host timing noise has components slower than a run, so medians
  // over many short repetitions are the steadiest estimates (README).
  s.open_s = o.seconds * 2.0 / 3.0;
  s.sat_s = o.seconds / 3.0;
  s.warmup_s = std::clamp(0.1 * o.seconds, 0.5, 3.0);
  s.train_reps = std::clamp(static_cast<int>(o.seconds / 2.0), 3, 15);
  s.rerank_reps = std::clamp(static_cast<int>(3.0 * o.seconds), 5, 90);
  return s;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every workload (README "Metrics" gives
/// each one's meaning per workload).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"p50_ms", "ms"},  {"p95_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"train_s", "s"}, {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, printed by every traced run. Absolute times are
/// layers every workload runs; the `trace.*_pct` shares split the traced
/// unit of work (trace.unit_us) and are 0 for a layer a workload does
/// not run, as are the serving counts and ratios on offline_ganc.
inline constexpr MetricDef kPerLayer[] = {
    {"dataset.open_ms", "ms"},
    {"artifact.load_ms", "ms"},
    {"recommender.fit_s", "s"},
    {"artifact.save_ms", "ms"},
    {"factor_kernels.user_us", "us"},
    {"top_k.select_us", "us"},
    {"trace.unit_us", "us"},
    {"trace.protocol.parse_pct", "%"},
    {"trace.session_overlay.collect_pct", "%"},
    {"trace.session_overlay.consume_pct", "%"},
    {"trace.shard_router.route_pct", "%"},
    {"trace.result_cache.probe_pct", "%"},
    {"trace.topn_store.probe_pct", "%"},
    {"trace.micro_batcher.score_pct", "%"},
    {"trace.protocol.format_pct", "%"},
    {"trace.kde.sample_pct", "%"},
    {"trace.recommender.score_all_pct", "%"},
    {"trace.ganc.other_pct", "%"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.pipeline.create_pct", "%"},
    {"ganc_serve.transport_pct", "%"},
    {"result_cache.hit_ratio", "ratio"},
    {"topn_store.hit_ratio", "ratio"},
    {"recommendation_service.live_ratio", "ratio"},
    {"micro_batcher.fill", "count"},
    {"micro_batcher.waited_flush_ratio", "ratio"},
    {"session_overlay.consumes", "count"},
    {"service_shard.publishes", "count"},
    {"serve_metrics.tail_slot_ratio", "ratio"},
    {"serve_metrics.novelty_bits", "bits"},
    {"eval.f_at_5", "ratio"},
    {"eval.lt_accuracy_at_5", "ratio"},
    {"eval.coverage_at_5", "ratio"},
    {"eval.gini_at_5", "ratio"},
};

using MetricMap = std::map<std::string, double>;

/// Everything one workload run reports. `problems` lists correctness
/// failures; any entry makes the run incorrect.
struct WorkloadResult {
  std::string workload;
  MetricMap e2e;
  MetricMap layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::string digest;
  Json health;

  void Problem(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
  bool correct() const { return problems.empty() && failed == 0; }
};

/// {"name": {"value": v, "unit": u}, ...} in catalog order; a metric the
/// run did not set is 0.
template <size_t N>
std::string MetricsJson(const MetricDef (&defs)[N], const MetricMap& values) {
  Json j;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    j.Raw(d.name, Json()
                      .Num("value", it == values.end() ? 0.0 : it->second)
                      .Str("unit", d.unit)
                      .str());
  }
  return j.str();
}

/// The result line, the last line of stdout: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
inline std::string ResultLine(const WorkloadResult& r, bool trace) {
  return Json()
      .Bool("correct", r.correct())
      .Int("attempted", static_cast<int64_t>(r.attempted))
      .Int("failed", static_cast<int64_t>(r.failed))
      .Raw("metrics", trace ? MetricsJson(kPerLayer, r.layer)
                            : MetricsJson(kEndToEnd, r.e2e))
      .str();
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Forks and execs `path` with `args` (args[0] is the child's argv[0]),
/// dup2-ing `in_fd`, `out_fd` and `err_fd` onto its stdio (-1 keeps the
/// parent's). The child gets PR_SET_PDEATHSIG, so it cannot outlive the
/// benchmark even if the benchmark is killed; the caller reaps it.
inline pid_t SpawnChild(const std::string& path, std::vector<std::string> args,
                        int in_fd, int out_fd, int err_fd) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (in_fd >= 0) dup2(in_fd, STDIN_FILENO);
    if (out_fd >= 0) dup2(out_fd, STDOUT_FILENO);
    if (err_fd >= 0) dup2(err_fd, STDERR_FILENO);
    execv(path.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

/// Peak resident set (VmHWM) of process `pid` in MiB; 0 when unreadable.
inline double VmHwmMb(pid_t pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Host fingerprint written into every result document, so a number is
/// never read without the machine, build and code that produced it.
inline std::string HostJson(const std::string& commit,
                            const std::string& source_digest, uint64_t seed) {
  std::string model = "unknown";
  std::string flags;
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon + 2 > line.size()) continue;
    const std::string value = line.substr(colon + 2);
    if (line.rfind("model name", 0) == 0 && model == "unknown") {
      model = value;
    } else if (line.rfind("flags", 0) == 0 && flags.empty()) {
      flags = " " + value + " ";
    }
  }
  // Only the ISA extensions the scoring kernels dispatch on.
  static const char* kIsa[] = {"sse2",     "avx",      "avx2",
                               "fma",      "avx512f",  "avx512bw",
                               "avx512vl", "avx512_vnni", "avx_vnni"};
  std::string isa;
  for (const char* want : kIsa) {
    if (flags.find(std::string(" ") + want + " ") != std::string::npos) {
      if (!isa.empty()) isa += ' ';
      isa += want;
    }
  }
  return Json()
      .Str("cpu_model", model)
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("isa", isa)
      .Str("kernel_variant", KernelVariantName(ActiveKernelVariant()))
      .Str("kernel_selection", ActiveKernelSelection())
      .Str("build_type", GANC_E2E_BUILD_TYPE)
      .Str("compiler", GANC_E2E_COMPILER)
      .Str("git_commit", commit)
      .Str("source_digest", source_digest)
      .Int("seed", static_cast<int64_t>(seed))
      .str();
}

}  // namespace ganc::e2e

#endif  // GANC_BENCH_E2E_COMMON_H_
