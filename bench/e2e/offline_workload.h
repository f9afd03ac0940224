// offline_ganc: the paper's own pipeline on a paper-calibrated corpus.
// Load the dataset cache and split it (kappa 0.8), fit PSVD10, learn
// theta^G and assemble GANC(PSVD10, theta^G, Dyn), save the pipeline,
// re-rank every user with OSLG (RecommendAll), and evaluate Table III.
//
// The measured part runs in a re-exec'd child (`--phase=offline-child`)
// so its peak RSS is its own and not the corpus generator's. The child
// reports over stdout, one record per line:
//   E|L <metric> <value>    end-to-end / per-layer metric
//   A <attempted> <failed>
//   D <digest>
//   P <problem>
//   H <key> <json>          run-health field

#ifndef GANC_BENCH_E2E_OFFLINE_WORKLOAD_H_
#define GANC_BENCH_E2E_OFFLINE_WORKLOAD_H_

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "recommender/psvd.h"
#include "recommender/recommender.h"
#include "spans.h"
#include "util/kde.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ganc::e2e {

constexpr int kOfflineTopN = 5;          ///< the paper's N
constexpr int kOfflineSample = 500;      ///< OSLG sequential sample S
constexpr int kOfflineThreads = 4;

inline double Seconds(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// The child: prints its records on stdout and returns the exit code.
inline int OfflineChild(const Options& opt) {
  const Sizes sizes = SizesFor(opt);
  const std::string cache = opt.workdir + "/offline.gdc";
  const std::string gap = opt.workdir + "/offline.gap";
  ThreadPool pool(kOfflineThreads);
  SpanLog log(0);
  auto span = [&](const char* name, uint64_t t0) {
    const uint64_t t1 = MonotonicNowNs();
    log.Add(name, t0, t1);
    return Seconds(t0, t1);
  };
  std::ostringstream out;
  auto problem = [&](const std::string& what) {
    out << "P " << what << "\n";
  };

  std::vector<double> setup_s, load_s;
  std::optional<TrainTestSplit> split;
  for (int k = 0; k < sizes.setup_reps; ++k) {
    const uint64_t t0 = MonotonicNowNs();
    RatingDataset full =
        Check(RatingDataset::LoadFileAuto(cache, false), "load cache");
    load_s.push_back(span("dataset.load", t0));
    const uint64_t t1 = MonotonicNowNs();
    split.emplace(Check(
        PerUserRatioSplit(full, {.train_ratio = 0.8, .seed = opt.seed}),
        "split"));
    setup_s.push_back(load_s.back() + span("split.split", t1));
  }
  const RatingDataset& train = split->train;
  const RatingDataset& test = split->test;
  const int32_t users = train.num_users();

  std::vector<double> train_s, fit_s, create_s, save_s;
  std::unique_ptr<GancPipeline> pipeline;
  for (int k = 0; k < sizes.train_reps; ++k) {
    auto base =
        std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 10});
    const uint64_t t0 = MonotonicNowNs();
    Check(base->Fit(train, &pool), "fit PSVD10");
    fit_s.push_back(span("psvd.fit", t0));
    PipelineConfig pc;
    pc.theta_model = PreferenceModel::kGeneralized;
    pc.coverage = CoverageKind::kDyn;
    pc.top_n = kOfflineTopN;
    pc.sample_size = kOfflineSample;
    pc.seed = opt.seed;
    pc.fit_base = false;
    pc.num_threads = kOfflineThreads;
    const uint64_t t1 = MonotonicNowNs();
    pipeline = Check(GancPipeline::Create(std::move(base), train, pc),
                     "create pipeline");
    create_s.push_back(span("pipeline.create", t1));
    const uint64_t t2 = MonotonicNowNs();
    Check(pipeline->SaveFile(gap), "save pipeline");
    save_s.push_back(span("pipeline.save", t2));
    train_s.push_back(fit_s.back() + create_s.back() + save_s.back());
  }

  std::vector<double> rerank_s;
  TopNCollection lists;
  std::string digest;
  uint64_t bad_lists = 0;
  for (int k = 0; k < sizes.rerank_reps; ++k) {
    const uint64_t t0 = MonotonicNowNs();
    TopNCollection rep = Check(pipeline->RecommendAll(), "RecommendAll");
    rerank_s.push_back(span("ganc.recommend_all", t0));
    Fnv1a h;
    for (UserId u = 0; u < users; ++u) {
      const std::vector<ItemId>& list = rep[static_cast<size_t>(u)];
      std::string line;
      for (const ItemId i : list) line += std::to_string(i) + ",";
      h.Add(line);
      std::vector<ItemId> sorted = list;
      std::sort(sorted.begin(), sorted.end());
      bool ok = sorted.size() == kOfflineTopN &&
                std::adjacent_find(sorted.begin(), sorted.end()) ==
                    sorted.end();
      for (const ItemId i : list) {
        ok = ok && i >= 0 && i < train.num_items() && !train.HasRating(u, i);
      }
      if (!ok) {
        ++bad_lists;
        if (bad_lists <= 5) {
          problem("invalid list for user " + std::to_string(u));
        }
      }
    }
    if (k == 0) {
      digest = h.Hex();
      lists = std::move(rep);
    } else if (h.Hex() != digest) {
      bad_lists += static_cast<uint64_t>(users);
      problem("RecommendAll repetition " + std::to_string(k) + " differs");
    }
  }
  const uint64_t te = MonotonicNowNs();
  const MetricsReport quality =
      EvaluateTopN(train, test, lists, {.top_n = kOfflineTopN});
  span("eval.evaluate", te);

  const double rerank_med = Median(rerank_s);
  auto put = [&](char tag, const char* name, double value) {
    out << tag << ' ' << name << ' ' << JsonNumber(value) << "\n";
  };
  put('E', "setup_s", Median(setup_s));
  put('E', "p50_ms", rerank_med * 1e3);
  put('E', "p95_ms", Quantile(rerank_s, 0.95) * 1e3);
  put('E', "throughput_per_s", users / rerank_med);
  put('E', "train_s", Median(train_s));
  put('L', "eval.f_at_5", quality.f_measure);
  put('L', "eval.lt_accuracy_at_5", quality.lt_accuracy);
  put('L', "eval.coverage_at_5", quality.coverage);
  put('L', "eval.gini_at_5", quality.gini);
  put('H', "users", users);
  put('H', "sweep_rows", static_cast<double>(
                             MetricsRegistry::Global().Snapshot().CounterValue(
                                 "data_sweep_rows_total")));
  out << "H table3 "
      << Json()
             .Num("f_at_5", quality.f_measure)
             .Num("lt_accuracy_at_5", quality.lt_accuracy)
             .Num("coverage_at_5", quality.coverage)
             .Num("gini_at_5", quality.gini)
             .str()
      << "\n"
      << "A " << static_cast<uint64_t>(users) * sizes.rerank_reps << " "
      << bad_lists << "\n"
      << "D " << digest << "\n";

  if (opt.trace) {
    // Trace-only calls that split RecommendAll: the OSLG user sample
    // (KDE) and scoring plus top-N selection of every user on the base
    // model; GANC's remainder is the greedy, normalization and Dyn state.
    Rng rng(opt.seed);
    const uint64_t tk = MonotonicNowNs();
    Check(KdeProportionalSample(pipeline->theta(), kOfflineSample, &rng),
          "KDE sample");
    const double kde_s = span("kde.sample", tk);
    const uint64_t ts = MonotonicNowNs();
    const auto all =
        RecommendAllUsers(pipeline->base(), train, kOfflineTopN, &pool);
    const double score_all_s = span("recommender.score_all", ts);
    if (all.size() != static_cast<size_t>(users)) {
      problem("RecommendAllUsers returned the wrong number of lists");
    }

    // One serial pass for per-user kernel and selection cost.
    ScoringContext ctx;
    const size_t ni = static_cast<size_t>(train.num_items());
    std::vector<UserId> block;
    uint64_t kernel_ns = 0, select_ns = 0;
    const uint64_t tp = MonotonicNowNs();
    for (UserId b0 = 0; b0 < users; b0 += static_cast<UserId>(kScoreBatch)) {
      block.clear();
      for (UserId u = b0; u < std::min<UserId>(users, b0 + kScoreBatch); ++u) {
        block.push_back(u);
      }
      const std::span<double> scores = ctx.BatchScores(block.size() * ni);
      const uint64_t t0 = MonotonicNowNs();
      pipeline->base().ScoreBatchInto(block, scores);
      const uint64_t t1 = MonotonicNowNs();
      for (size_t b = 0; b < block.size(); ++b) {
        SelectTopKUnrated(scores.subspan(b * ni, ni), train, block[b],
                          kOfflineTopN, ctx);
      }
      kernel_ns += t1 - t0;
      select_ns += MonotonicNowNs() - t1;
    }
    span("recommender.serial_score_select", tp);

    const uint64_t tl = MonotonicNowNs();
    auto loaded = Check(GancPipeline::LoadFile(gap, train, kOfflineThreads),
                        "load pipeline");
    const double pipeline_load_s = span("pipeline.load", tl);
    if (loaded->theta() != pipeline->theta()) {
      problem("reloaded pipeline theta differs");
    }

    // Offline spans wrap whole calls (one per RecommendAll), so the
    // tracing overhead is the cost of recording one span, measured here,
    // over the median RecommendAll.
    constexpr int kSpanProbes = 10000;
    SpanLog probe(1);
    const uint64_t tc = MonotonicNowNs();
    for (int i = 0; i < kSpanProbes; ++i) {
      probe.Add("probe", MonotonicNowNs(), MonotonicNowNs());
    }
    const double span_s = Seconds(tc, MonotonicNowNs()) / kSpanProbes;

    const double kde_pct = 100.0 * kde_s / rerank_med;
    const double score_pct = 100.0 * score_all_s / rerank_med;
    put('L', "dataset.open_ms", Median(load_s) * 1e3);
    put('L', "artifact.load_ms", pipeline_load_s * 1e3);
    put('L', "recommender.fit_s", Median(fit_s));
    put('L', "artifact.save_ms", Median(save_s) * 1e3);
    put('L', "factor_kernels.user_us", kernel_ns * 1e-3 / users);
    put('L', "top_k.select_us", select_ns * 1e-3 / users);
    put('L', "trace.unit_us", rerank_med * 1e6 / users);
    put('L', "trace.kde.sample_pct", kde_pct);
    put('L', "trace.recommender.score_all_pct", score_pct);
    put('L', "trace.ganc.other_pct", 100.0 - kde_pct - score_pct);
    put('L', "trace.overhead_pct", 100.0 * span_s / rerank_med);
    put('L', "trace.pipeline.create_pct",
        100.0 * Median(create_s) / Median(train_s));
    put('H', "kde_s", kde_s);
    put('H', "score_all_s", score_all_s);
    put('H', "rerank_median_s", rerank_med);
    put('H', "split_s", Median(setup_s) - Median(load_s));
    put('H', "theta_plus_tail_s", Median(create_s));
    WriteSpansJsonl(opt.spans_path, "offline_ganc", {&log}, 1);
  }
  out << "E peak_rss_mb " << JsonNumber(PeakRssMb()) << "\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}

/// Reads a child's whole stdout and reaps it; dies on a non-zero exit.
inline std::string RunChild(const std::vector<std::string>& args) {
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) Die("pipe2 failed");
  const pid_t pid = SpawnChild("/proc/self/exe", args, -1, out[1], -1);
  close(out[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(out[0], buf, sizeof(buf))) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    text.append(buf, static_cast<size_t>(n));
  }
  close(out[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("offline child failed (status " + std::to_string(status) + ")");
  }
  return text;
}

inline WorkloadResult RunOfflineWorkload(const Options& opt, const Sizes& sizes,
                                         const std::string& dir) {
  WorkloadResult r;
  r.workload = "offline_ganc";
  {
    SyntheticSpec spec = MovieLens1MSpec();
    spec.num_users = sizes.offline_users;
    spec.seed = opt.seed;
    const RatingDataset corpus =
        Check(GenerateSynthetic(spec), "generate corpus");
    Check(corpus.SaveBinaryFile(dir + "/offline.gdc"), "save corpus");
  }
  std::vector<std::string> args = {
      "bench_e2e", "--phase=offline-child", "--workdir=" + dir,
      "--seed=" + std::to_string(opt.seed),
      "--seconds=" + JsonNumber(opt.seconds),
      "--trace=" + std::string(opt.trace ? "1" : "0"),
      "--spans=" + opt.spans_path};
  if (opt.smoke) args.push_back("--smoke");
  std::istringstream lines(RunChild(args));
  for (std::string line; std::getline(lines, line);) {
    std::istringstream ls(line);
    std::string tag, key;
    ls >> tag;
    if (tag == "E" || tag == "L") {
      double v = 0.0;
      ls >> key >> v;
      (tag == "E" ? r.e2e : r.layer)[key] = v;
    } else if (tag == "A") {
      ls >> r.attempted >> r.failed;
    } else if (tag == "D") {
      ls >> r.digest;
    } else if (tag == "P") {
      r.Problem(line.substr(2));
    } else if (tag == "H") {
      std::string rest;
      ls >> key;
      std::getline(ls, rest);
      r.health.Raw(key, rest.empty() ? "null" : rest.substr(1));
    }
  }
  if (r.e2e.size() != std::size(kEndToEnd)) {
    Die("offline child reported too few metrics");
  }
  return r;
}

}  // namespace ganc::e2e

#endif  // GANC_BENCH_E2E_OFFLINE_WORKLOAD_H_
