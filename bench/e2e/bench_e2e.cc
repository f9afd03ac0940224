// bench_e2e: one end-to-end benchmark of the GANC serving tier and the
// paper's offline pipeline, with a per-layer breakdown. See README.md in
// this directory for the workloads, the metric catalog and how to run
// gated, traced, smoke and A/B runs.
//
//   bench_e2e --workload serve_live --seed 1 --seconds 10 --trace 0
//
// Inputs are generated from --seed into a work directory under
// --results-dir and removed at exit; the programs under test see only
// those files and the request streams. The last line of stdout is the
// result: {"correct", "attempted", "failed", "metrics"}, with the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1). A
// fuller document (host fingerprint, run health, digest, both metric
// sets) goes to --results-dir, a readable report to stderr.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "offline_workload.h"
#include "serve_workload.h"

using namespace ganc;
using namespace ganc::e2e;

namespace {

constexpr const char* kWorkloads[] = {"serve_head", "serve_live",
                                      "serve_session", "offline_ganc"};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S]\n"
               "                 [--trace 0|1] [--smoke] [--results-dir DIR]\n"
               "                 [--spans PATH]\n"
               "workloads: serve_head serve_live serve_session offline_ganc\n"
               "(no --workload runs all four in turn)\n");
}

/// Accepts both `--name=value` and `--name value`.
Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      Usage();
      std::exit(2);
    }
    std::string value;
    bool has_value = false;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto next = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = next();
      else if (arg == "--seed") o.seed = std::stoull(next());
      else if (arg == "--seconds") o.seconds = std::stod(next());
      else if (arg == "--trace") o.trace = next() != "0";
      else if (arg == "--smoke") o.smoke = true;
      else if (arg == "--results-dir") o.results_dir = next();
      else if (arg == "--spans") o.spans_path = next();
      else if (arg == "--commit") o.commit = next();
      else if (arg == "--source-digest") o.source_digest = next();
      else if (arg == "--phase") o.phase = next();
      else if (arg == "--workdir") o.workdir = next();
      else if (arg == "--help") {
        Usage();
        std::exit(0);
      } else {
        throw std::invalid_argument(arg);
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bench_e2e: bad argument %s\n", argv[i]);
      Usage();
      std::exit(2);
    }
  }
  if (o.seconds <= 0.0) {
    std::fprintf(stderr, "bench_e2e: --seconds must be positive\n");
    std::exit(2);
  }
  return o;
}

/// Work directory for one workload's inputs, removed on scope exit.
class WorkDir {
 public:
  explicit WorkDir(const std::string& path) : path_(path) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

WorkloadResult RunWorkload(const Options& opt, const std::string& name) {
  const Sizes sizes = SizesFor(opt);
  const WorkDir dir(std::filesystem::absolute(opt.results_dir).string() +
                    "/work-" + std::to_string(getpid()));
  if (name == "offline_ganc") return RunOfflineWorkload(opt, sizes, dir.path());
  for (const ServeWorkload& wl : kServeWorkloads) {
    if (name == wl.name) return RunServeWorkload(opt, sizes, wl, dir.path());
  }
  Die("unknown workload " + name);
}

template <size_t N>
void PrintTable(const char* title, const MetricDef (&defs)[N],
                const MetricMap& values) {
  std::fprintf(stderr, "  %s:\n", title);
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    std::fprintf(stderr, "    %-36s %14.6g %s\n", d.name,
                 it == values.end() ? 0.0 : it->second, d.unit);
  }
}

void Report(const Options& opt, const WorkloadResult& r) {
  std::fprintf(stderr,
               "[bench_e2e] %s seed=%llu seconds=%g%s%s: %s, %llu attempted, "
               "%llu failed, digest %s\n",
               r.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? " traced" : "",
               opt.smoke ? " smoke" : "",
               r.correct() ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed), r.digest.c_str());
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "  problem: %s\n", p.c_str());
  }
  PrintTable("end-to-end", kEndToEnd, r.e2e);
  if (opt.trace) PrintTable("per-layer", kPerLayer, r.layer);
  std::fprintf(stderr, "  health: %s\n", r.health.str().c_str());
}

/// The full result document, one per run, for compare.py.
void WriteDocument(const Options& opt, const WorkloadResult& r) {
  std::string problems;
  for (const std::string& p : r.problems) {
    problems += (problems.empty() ? "" : ", ") + JsonString(p);
  }
  const std::string doc =
      Json()
          .Str("workload", r.workload)
          .Int("seed", static_cast<int64_t>(opt.seed))
          .Num("seconds", opt.seconds)
          .Bool("trace", opt.trace)
          .Bool("smoke", opt.smoke)
          .Raw("host", HostJson(opt.commit, opt.source_digest, opt.seed))
          .Bool("correct", r.correct())
          .Int("attempted", static_cast<int64_t>(r.attempted))
          .Int("failed", static_cast<int64_t>(r.failed))
          .Raw("problems", "[" + problems + "]")
          .Str("digest", r.digest)
          .Raw("health", r.health.str())
          .Raw("end_to_end", MetricsJson(kEndToEnd, r.e2e))
          .Raw("per_layer",
               opt.trace ? MetricsJson(kPerLayer, r.layer) : "null")
          .str();
  const std::string path =
      opt.results_dir + "/" + r.workload + "-s" + std::to_string(opt.seed) +
      (opt.trace ? "-trace" : "") + "-" + std::to_string(getpid()) + ".json";
  std::ofstream(path, std::ios::trunc) << doc << "\n";
  std::fprintf(stderr, "  result document: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = ParseOptions(argc, argv);
  try {
    if (opt.phase == "offline-child") return OfflineChild(opt);
    std::vector<std::string> workloads;
    if (opt.workload.empty()) {
      workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
    } else {
      workloads.push_back(opt.workload);
    }
    if (opt.smoke) opt.trace = true;  // a smoke run exercises every path
    std::filesystem::create_directories(opt.results_dir);
    bool all_correct = true;
    const std::string spans_flag = opt.spans_path;
    for (const std::string& name : workloads) {
      opt.spans_path = !spans_flag.empty() && workloads.size() == 1
                           ? spans_flag
                           : opt.results_dir + "/spans-" + name + "-s" +
                                 std::to_string(opt.seed) + ".jsonl";
      const WorkloadResult r = RunWorkload(opt, name);
      Report(opt, r);
      WriteDocument(opt, r);
      all_correct = all_correct && r.correct();
      std::printf("%s\n", ResultLine(r, opt.trace).c_str());
      std::fflush(stdout);
    }
    return opt.smoke && !all_correct ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
