// Out-of-core scale harness: the empirical backing for the mapped
// artifact loads. For 100K / 300K / 1M synthetic power-law users it
// measures
//
//   * streaming corpus generation time (O(users) memory),
//   * model fit time and peak RSS over the mapped cache,
//   * cold-load-to-first-request latency,
//   * store-backed serve throughput,
//   * peak RSS of the serving process.
//
// Peak RSS (VmHWM) is a per-process high-water mark, so every phase
// runs in a re-exec'ed child (`--phase=...`) and the parent collects
// one JSON result line per child. Run with no arguments to produce the
// committed BENCH_scale.json numbers (`--json <path>` writes the
// document, `--users a,b,c` overrides the size ladder).

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "recommender/model_io.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "serve/recommendation_service.h"
#include "serve/topn_store.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace ganc;

namespace {

constexpr int kTopN = 10;
constexpr size_t kHeadUsers = 2000;
constexpr int kServeRequests = 20000;

int64_t FileSizeBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  return is.good() ? static_cast<int64_t>(is.tellg()) : -1;
}

std::string CachePath(const std::string& dir, int64_t users) {
  return dir + "/scale_" + std::to_string(users) + ".gdc";
}
std::string ModelPath(const std::string& dir, int64_t users) {
  return dir + "/scale_" + std::to_string(users) + ".gam";
}
std::string StorePath(const std::string& dir, int64_t users) {
  return dir + "/scale_" + std::to_string(users) + ".gts";
}
std::string FactorModelPath(const std::string& dir, int64_t users) {
  return dir + "/scale_" + std::to_string(users) + "_psvd10.gam";
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "bench_scale: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

// --- Child phases. Each prints exactly one "@RESULT {...}" line.

int PhaseGen(const std::string& dir, int64_t users) {
  const ScaleSyntheticSpec spec = PowerLawScaleSpec(users);
  WallTimer t;
  ThreadPool pool;
  auto nnz = GenerateSyntheticStream(spec, CachePath(dir, users), &pool);
  if (!nnz.ok()) Die("generate", nnz.status());
  const double sec = t.ElapsedSeconds();
  std::printf("@RESULT {\"gen_seconds\": %.3f, \"nnz\": %" PRId64
              ", \"cache_mb\": %.1f, \"gen_peak_rss_mb\": %.1f}\n",
              sec, *nnz,
              static_cast<double>(FileSizeBytes(CachePath(dir, users))) / 1e6,
              PeakRssMb());
  return 0;
}

int PhasePrep(const std::string& dir, int64_t users) {
  auto train = RatingDataset::LoadFile(CachePath(dir, users));
  if (!train.ok()) Die("load cache", train.status());
  if (Status s = train->EnsureResident(); !s.ok()) Die("resident", s);

  PopRecommender pop;
  WallTimer fit_timer;
  if (Status s = pop.Fit(*train); !s.ok()) Die("fit", s);
  const double fit_sec = fit_timer.ElapsedSeconds();
  if (Status s = SaveModelFile(pop, ModelPath(dir, users)); !s.ok()) {
    Die("save model", s);
  }

  ServiceConfig config;
  config.micro_batching = false;
  auto service = RecommendationService::Create(pop, *train, config);
  if (!service.ok()) Die("service", service.status());
  const std::vector<UserId> head = HeadUsersByActivity(*train, kHeadUsers);
  WallTimer store_timer;
  auto store = (*service)->BuildStore(head, kTopN);
  if (!store.ok()) Die("build store", store.status());
  const double store_sec = store_timer.ElapsedSeconds();
  if (Status s = store->SaveFile(StorePath(dir, users)); !s.ok()) {
    Die("save store", s);
  }
  std::printf("@RESULT {\"fit_seconds\": %.3f, \"store_build_seconds\": %.3f, "
              "\"prep_peak_rss_mb\": %.1f}\n",
              fit_sec, store_sec, PeakRssMb());
  return 0;
}

// Out-of-core training probe: fit PSVD10 over the mapped cache under a
// small residency budget. The peak RSS should scale with the window
// budget plus the factor tables, not with the total rating count.
int PhaseTrain(const std::string& dir, int64_t users) {
  constexpr int64_t kTrainBudgetBytes = 64 << 20;
  auto train = RatingDataset::LoadFile(CachePath(dir, users));
  if (!train.ok()) Die("load cache", train.status());
  train->set_train_budget_bytes(kTrainBudgetBytes);
  PsvdRecommender model(PsvdConfig{.num_factors = 10});
  WallTimer fit_timer;
  if (Status s = model.Fit(*train); !s.ok()) Die("fit", s);
  const double fit_sec = fit_timer.ElapsedSeconds();
  if (Status s = SaveModelFile(model, FactorModelPath(dir, users)); !s.ok()) {
    Die("save model", s);
  }
  std::printf("@RESULT {\"fit_seconds\": %.3f, \"budget_mb\": %d, "
              "\"peak_rss_mb\": %.1f}\n",
              fit_sec, static_cast<int>(kTrainBudgetBytes >> 20),
              PeakRssMb());
  return 0;
}

// Cold start to first answered request, then store-backed throughput —
// the serving process the harness actually cares about.
int PhaseServe(const std::string& dir, int64_t users) {
  WallTimer cold;
  auto train = RatingDataset::LoadFile(CachePath(dir, users));
  if (!train.ok()) Die("load cache", train.status());
  ServiceConfig config;
  config.micro_batching = false;
  config.cache_capacity = 0;  // measure the store path, not the LRU
  auto service =
      RecommendationService::LoadModelService(ModelPath(dir, users), *train,
                                              config);
  if (!service.ok()) Die("load model", service.status());
  auto store = TopNStore::LoadFile(StorePath(dir, users));
  if (!store.ok()) Die("load store", store.status());
  const std::vector<UserId> head = HeadUsersByActivity(*train, kHeadUsers);
  if (Status s = (*service)->AttachStore(
          std::make_shared<const TopNStore>(std::move(store).value()));
      !s.ok()) {
    Die("attach store", s);
  }
  auto first = (*service)->TopN(head.front(), kTopN);
  if (!first.ok()) Die("first request", first.status());
  const double first_ms = cold.ElapsedMillis();

  WallTimer serve_timer;
  std::vector<ItemId> out;
  for (int i = 0; i < kServeRequests; ++i) {
    const UserId u = head[static_cast<size_t>(i) % head.size()];
    if (Status s = (*service)->TopNInto(u, kTopN, {}, &out); !s.ok()) {
      Die("request", s);
    }
  }
  const double serve_sec = serve_timer.ElapsedSeconds();
  const MetricsSnapshot stats = (*service)->metrics_registry()->Snapshot();
  std::printf(
      "@RESULT {\"first_request_ms\": %.2f, \"serve_qps\": %.0f, "
      "\"store_hit_rate\": %.3f, \"peak_rss_mb\": %.1f}\n",
      first_ms,
      static_cast<double>(kServeRequests) / serve_sec,
      static_cast<double>(stats.CounterValue("serve_store_hits_total")) /
          static_cast<double>(stats.CounterValue("serve_requests_total")),
      PeakRssMb());
  return 0;
}

// --- Parent driver.

std::string SelfExe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

// Runs one child phase and returns the JSON object from its @RESULT
// line (child stdout is echoed through for progress).
std::string RunChild(const std::string& exe, const std::string& phase,
                     const std::string& dir, int64_t users,
                     const std::string& extra = "") {
  std::string cmd = exe + " --phase=" + phase + " --dir=" + dir +
                    " --users=" + std::to_string(users);
  if (!extra.empty()) cmd += " " + extra;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "bench_scale: popen failed: %s\n", cmd.c_str());
    std::exit(1);
  }
  std::string result;
  char line[4096];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    if (std::strncmp(line, "@RESULT ", 8) == 0) {
      result.assign(line + 8);
      while (!result.empty() &&
             (result.back() == '\n' || result.back() == '\r')) {
        result.pop_back();
      }
    } else {
      std::fputs(line, stdout);
    }
  }
  const int rc = ::pclose(pipe);
  if (rc != 0 || result.empty()) {
    std::fprintf(stderr, "bench_scale: phase '%s' (users=%" PRId64
                 ") failed (rc=%d)\n", phase.c_str(), users, rc);
    std::exit(1);
  }
  return result;
}

std::string FlagValue(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string phase = FlagValue(argc, argv, "--phase");
  if (!phase.empty()) {
    const std::string dir = FlagValue(argc, argv, "--dir");
    const int64_t users = std::atoll(FlagValue(argc, argv, "--users").c_str());
    if (dir.empty() || users <= 0) {
      std::fprintf(stderr, "bench_scale: --phase needs --dir and --users\n");
      return 1;
    }
    if (phase == "gen") return PhaseGen(dir, users);
    if (phase == "prep") return PhasePrep(dir, users);
    if (phase == "train") return PhaseTrain(dir, users);
    if (phase == "serve") return PhaseServe(dir, users);
    std::fprintf(stderr, "bench_scale: unknown phase '%s'\n", phase.c_str());
    return 1;
  }

  std::string json_path = FlagValue(argc, argv, "--json");
  std::vector<int64_t> sizes;
  const std::string users_flag = FlagValue(argc, argv, "--users");
  if (!users_flag.empty()) {
    std::stringstream ss(users_flag);
    std::string tok;
    while (std::getline(ss, tok, ',')) sizes.push_back(std::atoll(tok.c_str()));
  } else {
    sizes = {100000, 300000, 1000000};
  }

  char dir_template[] = "/tmp/ganc_scale_XXXXXX";
  const char* dir_c = ::mkdtemp(dir_template);
  if (dir_c == nullptr) {
    std::fprintf(stderr, "bench_scale: mkdtemp failed\n");
    return 1;
  }
  const std::string dir = dir_c;
  const std::string exe = SelfExe(argv[0]);

  std::printf("=== out-of-core scale harness (artifacts in %s) ===\n",
              dir.c_str());
  std::string json = "{\n  \"sizes\": [\n";
  for (size_t i = 0; i < sizes.size(); ++i) {
    const int64_t users = sizes[i];
    std::printf("--- %" PRId64 " users ---\n", users);
    const std::string gen = RunChild(exe, "gen", dir, users);
    const std::string prep = RunChild(exe, "prep", dir, users);
    const std::string train = RunChild(exe, "train", dir, users);
    const std::string serve = RunChild(exe, "serve", dir, users);
    std::printf("  gen    %s\n  prep   %s\n  train  %s\n  serve  %s\n",
                gen.c_str(), prep.c_str(), train.c_str(), serve.c_str());
    json += "    {\"users\": " + std::to_string(users) + ",\n";
    json += "     \"generate\": " + gen + ",\n";
    json += "     \"prepare\": " + prep + ",\n";
    json += "     \"train_mmap\": " + train + ",\n";
    json += "     \"serve_mmap\": " + serve + "}";
    json += (i + 1 < sizes.size()) ? ",\n" : "\n";

    std::remove(CachePath(dir, users).c_str());
    std::remove(ModelPath(dir, users).c_str());
    std::remove(StorePath(dir, users).c_str());
    std::remove(FactorModelPath(dir, users).c_str());
  }
  json += "  ]\n}\n";
  ::rmdir(dir.c_str());

  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    os << json;
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fputs(json.c_str(), stdout);
  }
  return 0;
}
