// ganc_cli: train, persist, and serve the GANC pipeline from the
// command line.
//
// Subcommands (no subcommand = `recommend`, the classic end-to-end run):
//
//   ganc_cli cache-dataset --ratings-file=ratings.csv --out=ratings.gdc
//       Parse a text ratings file (or synthesize a preset) once and
//       write the binary CSR dataset cache; later runs load it with
//       --dataset-cache instead of re-parsing.
//
//   ganc_cli train --dataset-cache=ratings.gdc --arec=psvd100 \
//            --save-model=psvd100.gam [--save-pipeline=pipeline.gap]
//       Fit the accuracy recommender on the train split and save the
//       model artifact; optionally learn theta and save the whole
//       pipeline state.
//
//   ganc_cli recommend --dataset-cache=ratings.gdc \
//            --load-model=psvd100.gam --output=topn.bin
//       Skip training: load the artifact, run GANC, print the Table III
//       metric bundle. With identical data/seed flags the output is
//       byte-identical to a train-and-recommend run (CI pins this).
//
// Classic one-shot runs still work:
//
//   ganc_cli --dataset=ml100k --arec=psvd100 --theta=g --crec=dyn
//            --top-n=5 --sample-size=500 --seed=42

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/ganc.h"
#include "core/pipeline.h"
#include "core/preference.h"
#include "data/loader.h"
#include "data/longtail.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/runner.h"
#include "recommender/bpr.h"
#include "recommender/cofirank.h"
#include "recommender/factor_kernels.h"
#include "recommender/factor_view.h"
#include "recommender/item_knn.h"
#include "recommender/model_io.h"
#include "recommender/pop.h"
#include "recommender/psvd.h"
#include "recommender/random_rec.h"
#include "recommender/random_walk.h"
#include "recommender/rsvd.h"
#include "recommender/user_knn.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/recommendation_service.h"
#include "serve/service_shard.h"
#include "serve/shard_router.h"
#include "serve/topn_store.h"
#include "util/binary_io.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/logging.h"
#include "util/timer.h"

using namespace ganc;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: ganc_cli [train|recommend|cache-dataset|synth|kernels] "
      "[flags]\n"
      "\n"
      "data source (all commands):\n"
      "    [--dataset=ml100k|ml1m|ml10m|mt200k|netflix|tiny]\n"
      "    [--ratings-file=PATH --delimiter=, --skip-header]\n"
      "    [--dataset-cache=PATH]   (binary cache from `cache-dataset`)\n"
      "    [--kappa=0.5] [--seed=42] [--mmap=true]\n"
      "    --mmap controls zero-copy file mapping of v3 artifacts\n"
      "    (dataset caches and model loads); --kappa=1 serves the whole\n"
      "    corpus as the train split without a materializing re-split.\n"
      "\n"
      "cache-dataset:  --out=PATH  (writes the binary dataset cache)\n"
      "\n"
      "synth:          --out=PATH --users=N [--items=N]\n"
      "                [--mean-activity=24] [--seed=1] [--threads=1]\n"
      "                Streams a power-law scale corpus into a v3 dataset\n"
      "                cache with O(users) memory; byte-identical output\n"
      "                for any --threads value.\n"
      "\n"
      "train:          [--arec=pop|rand|rp3b|itemknn|userknn|psvd10|\n"
      "                 psvd100|rsvd|bpr|cofi]\n"
      "                [--save-model=PATH] [--save-pipeline=PATH]\n"
      "                [--factor-precision=fp64|fp32|int8]  (compact the\n"
      "                 fitted factor tables before saving/serving)\n"
      "                [--theta=a|n|t|g|r|c] [--crec=rand|stat|dyn]\n"
      "                [--threads=1]   (parallel blocked trainers;\n"
      "                 artifacts are byte-identical to --threads=1)\n"
      "                [--train-memory-budget=MIB]  (out-of-core fit: cap\n"
      "                 on resident rating rows per sweep window; with\n"
      "                 --kappa=1 and a mapped --dataset-cache the full\n"
      "                 rating matrix is never materialized. 0 = one\n"
      "                 window. The fitted model is identical for every\n"
      "                 budget.)\n"
      "\n"
      "recommend (default command):\n"
      "                [--arec=...] | [--load-model=PATH] |\n"
      "                [--load-pipeline=PATH]\n"
      "                [--theta=a|n|t|g|r|c] [--crec=rand|stat|dyn]\n"
      "                [--top-n=5] [--sample-size=500] [--threads=1]\n"
      "                [--factor-precision=fp64|fp32|int8]\n"
      "                [--theta-out=PATH] [--output=PATH] [--verbose]\n"
      "\n"
      "inspect PATH:   dump an artifact's header and section table\n"
      "\n"
      "topn:           --load-model=PATH | --load-pipeline=PATH\n"
      "                [--top-n=10] [--users=N]   (first N users; 0 = all)\n"
      "                [--head-users=N]  (N most active users instead,\n"
      "                 matching a precompute-topn store's coverage)\n"
      "                [--factor-precision=fp64|fp32|int8]\n"
      "                Prints one serve-protocol response line per user,\n"
      "                byte-comparable with a ganc_serve transcript.\n"
      "\n"
      "precompute-topn: --load-model=PATH | --load-pipeline=PATH\n"
      "                --out=PATH [--top-n=10] [--head-users=N]\n"
      "                Builds the precomputed top-N store artifact for\n"
      "                the N most active users (0 = everyone).\n"
      "\n"
      "replay:         --requests=PATH\n"
      "                --load-model=PATH | --load-pipeline=PATH\n"
      "                [--shards=N] [--top-n=10]\n"
      "                Replays a serve-protocol transcript (TOPN/TOPNV/\n"
      "                CONSUME/PUBLISH/VERSION/SHARDS/STATS/METRICS/\n"
      "                TRACE/PING) through an in-process shard router,\n"
      "                one response per request — the process-free twin\n"
      "                of piping the file into ganc_serve. Ends with a\n"
      "                stderr metrics report (request counts, p50/p95/\n"
      "                p99 latency, per-generation novelty/coverage).\n"
      "\n"
      "metrics:        --port=N [--host=127.0.0.1]\n"
      "                One-shot scrape of a listening ganc_serve: sends\n"
      "                METRICS and prints the text exposition to stdout.\n"
      "\n"
      "kernels:        report the scoring kernel dispatch (variants,\n"
      "                probe timings, active choice); --list prints one\n"
      "                host-supported GANC_KERNEL name per line.\n");
}

Result<std::unique_ptr<Recommender>> BuildArec(const std::string& name) {
  std::unique_ptr<Recommender> base;
  if (name == "pop") {
    base = std::make_unique<PopRecommender>();
  } else if (name == "rand") {
    base = std::make_unique<RandomRecommender>();
  } else if (name == "rp3b") {
    base = std::make_unique<RandomWalkRecommender>();
  } else if (name == "itemknn") {
    base = std::make_unique<ItemKnnRecommender>();
  } else if (name == "userknn") {
    base = std::make_unique<UserKnnRecommender>();
  } else if (name == "rsvd") {
    base = std::make_unique<RsvdRecommender>(RsvdConfig{.use_biases = true});
  } else if (name == "psvd10") {
    base = std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 10});
  } else if (name == "psvd100") {
    base = std::make_unique<PsvdRecommender>(PsvdConfig{.num_factors = 100});
  } else if (name == "bpr") {
    base = std::make_unique<BprRecommender>();
  } else if (name == "cofi") {
    base = std::make_unique<CofiRecommender>();
  } else {
    return Status::InvalidArgument("unknown --arec '" + name + "'");
  }
  return base;
}

Result<PreferenceModel> ParseTheta(const std::string& s) {
  if (s == "a") return PreferenceModel::kActivity;
  if (s == "n") return PreferenceModel::kNormalized;
  if (s == "t") return PreferenceModel::kTfidf;
  if (s == "g") return PreferenceModel::kGeneralized;
  if (s == "r") return PreferenceModel::kRandom;
  if (s == "c") return PreferenceModel::kConstant;
  return Status::InvalidArgument("unknown theta model '" + s + "'");
}

Result<CoverageKind> ParseCoverage(const std::string& s) {
  if (s == "rand") return CoverageKind::kRand;
  if (s == "stat") return CoverageKind::kStat;
  if (s == "dyn") return CoverageKind::kDyn;
  return Status::InvalidArgument("unknown coverage recommender '" + s + "'");
}

// --factor-precision, shared by every command that holds a fitted model.
// Absent or "fp64" keeps the model's current tables (a loaded artifact
// may already be compact).
Result<FactorPrecision> FactorPrecisionFlag(const Flags& flags) {
  return ParseFactorPrecision(flags.GetString("factor-precision", "fp64"));
}

Status ApplyFactorPrecision(const Flags& flags, Recommender* model) {
  Result<FactorPrecision> p = FactorPrecisionFlag(flags);
  if (!p.ok()) return p.status();
  if (*p == FactorPrecision::kFp64) return Status::OK();
  GANC_RETURN_NOT_OK(model->SetFactorPrecision(*p));
  std::printf("factor tables compacted to %s\n", FactorPrecisionName(*p));
  return Status::OK();
}

// Loaded data + split shared by all commands. The split owns its own
// train/test datasets; the full dataset is kept for summary reporting.
struct Prepared {
  RatingDataset dataset;
  TrainTestSplit split;
};

// Shared epilogue of every recommend run: persist the collection when
// requested and print the Table III comparison of base vs GANC.
int ReportRun(const Recommender& base, const std::string& ganc_name,
              const TopNCollection& topn, const RatingDataset& train,
              const RatingDataset& test, int n, ThreadPool* pool,
              const std::string& output) {
  if (!output.empty()) {
    if (Status s = WriteTopNCollection(output, topn); !s.ok()) {
      std::fprintf(stderr, "output: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("top-N collection written to %s\n", output.c_str());
  }
  const std::vector<AlgorithmEntry> entries = {
      {base.name(), [&] { return RecommendAllUsers(base, train, n, pool); }},
      {ganc_name, [&] { return topn; }},
  };
  const auto results = RunComparison(entries, train, test,
                                     MetricsConfig{.top_n = n});
  ComparisonTable(results, n).Print();
  return 0;
}

Result<Prepared> Prepare(const Flags& flags, bool print_summary,
                         bool ensure_resident = true) {
  Result<RatingDataset> dataset = LoadDatasetFromFlags(flags);
  if (!dataset.ok()) return dataset.status();
  auto kappa = flags.GetDouble("kappa", 0.5);
  auto seed = flags.GetInt("seed", 42);
  if (!kappa.ok() || !seed.ok()) {
    return Status::InvalidArgument("bad numeric flag");
  }
  Prepared prepared;
  const bool whole_corpus = *kappa == 1.0;
  if (whole_corpus) {
    // kappa = 1 ("the whole corpus is the train split", serving runs):
    // move the loaded dataset in directly instead of rebuilding it
    // through PerUserRatioSplit, which would materialize a mapped
    // cache's rows into owned triples.
    RatingDatasetBuilder empty_test(dataset->num_users(),
                                    dataset->num_items());
    Result<RatingDataset> test = std::move(empty_test).Build();
    if (!test.ok()) return test.status();
    prepared.split.train = std::move(dataset).value();
    prepared.split.test = std::move(test).value();
  } else {
    // The splitter and the summary's popularity index walk rows and
    // ratings(); a mapped cache materializes once, up front.
    GANC_RETURN_NOT_OK(dataset->EnsureResident());
    Result<TrainTestSplit> split = PerUserRatioSplit(
        *dataset, {.train_ratio = *kappa,
                   .seed = static_cast<uint64_t>(*seed)});
    if (!split.ok()) return split.status();
    prepared.dataset = std::move(dataset).value();
    prepared.split = std::move(split).value();
  }
  // Most CLI commands score or summarize through the train split's
  // derived indexes, so a mapped kappa=1 train materializes here, once.
  // (ganc_serve's store-backed path stays lazy, and `train` passes
  // ensure_resident=false: the trainers consume the budgeted row-window
  // sweep and never need the full matrix resident.)
  if (ensure_resident) {
    GANC_RETURN_NOT_OK(prepared.split.train.EnsureResident());
  }
  if (print_summary) {
    const RatingDataset& full =
        whole_corpus ? prepared.split.train : prepared.dataset;
    const DatasetSummary summary =
        Summarize("input", full, &prepared.split.train);
    std::printf("data: %lld ratings, %d users, %d items, d=%.3f%%, L=%.1f%%\n",
                static_cast<long long>(summary.num_ratings),
                summary.num_users, summary.num_items, summary.density_percent,
                summary.longtail_percent);
  }
  return prepared;
}

int CacheDataset(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "cache-dataset requires --out=PATH\n");
    return 1;
  }
  Result<RatingDataset> dataset = LoadDatasetFromFlags(flags);
  if (!dataset.ok()) {
    std::fprintf(stderr, "load: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  WallTimer timer;
  if (Status s = dataset->SaveBinaryFile(out); !s.ok()) {
    std::fprintf(stderr, "cache: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("dataset cache written to %s (%lld ratings, %.1f ms)\n",
              out.c_str(), static_cast<long long>(dataset->num_ratings()),
              timer.ElapsedMillis());
  return 0;
}

int Train(const Flags& flags) {
  if (flags.GetBool("verbose", false)) SetLogLevel(LogLevel::kInfo);
  auto threads = flags.GetInt("threads", 1);
  if (!threads.ok() || *threads < 0) {
    std::fprintf(stderr, "bad --threads flag\n");
    return 1;
  }
  // Pool-aware fits merge deterministically, so the pool only changes
  // wall time — the saved artifacts are byte-identical to --threads=1.
  std::unique_ptr<ThreadPool> pool;
  if (*threads != 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(*threads));
  }
  const std::string model_out = flags.GetString("save-model", "");
  const std::string pipeline_out = flags.GetString("save-pipeline", "");
  if (model_out.empty() && pipeline_out.empty()) {
    std::fprintf(stderr,
                 "train requires --save-model=PATH or --save-pipeline=PATH\n");
    return 1;
  }
  auto budget_mb = flags.GetInt("train-memory-budget", 0);
  if (!budget_mb.ok() || *budget_mb < 0) {
    std::fprintf(stderr, "bad --train-memory-budget flag\n");
    return 1;
  }
  // Trainers stream the split through budgeted row-window sweeps, so the
  // mapped kappa=1 path never needs the full matrix resident.
  Result<Prepared> prepared =
      Prepare(flags, /*print_summary=*/true, /*ensure_resident=*/false);
  if (!prepared.ok()) {
    std::fprintf(stderr, "load: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  prepared->split.train.set_train_budget_bytes(*budget_mb *
                                               int64_t{1024 * 1024});
  const RatingDataset& train = prepared->split.train;

  const std::string arec_name = flags.GetString("arec", "psvd100");
  Result<std::unique_ptr<Recommender>> base = BuildArec(arec_name);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* const epochs_total = registry.GetCounter(
      "train_epochs_total", "Training epochs completed.");
  LatencyHistogram* const epoch_ns = registry.GetHistogram(
      "train_epoch_ns", "Per-epoch training wall time, nanoseconds.");
  Gauge* const peak_rss = registry.GetGauge(
      "train_peak_rss_mb", "Peak resident set size during training, MiB.");
  WallTimer epoch_timer;
  uint64_t epoch_start_ns = MonotonicNowNs();
  (*base)->SetEpochCallback([&](int32_t epoch, int32_t total) {
    const uint64_t now_ns = MonotonicNowNs();
    epochs_total->Increment();
    epoch_ns->Observe(now_ns - epoch_start_ns);
    peak_rss->Set(PeakRssMb());
    epoch_start_ns = now_ns;
    std::printf("epoch %d/%d  %.1f ms  peak RSS %.1f MB\n", epoch, total,
                epoch_timer.ElapsedMillis(), PeakRssMb());
    epoch_timer.Reset();
  });
  WallTimer fit_timer;
  if (Status s = (*base)->Fit(train, pool.get()); !s.ok()) {
    std::fprintf(stderr, "fit: %s\n", s.ToString().c_str());
    return 1;
  }
  peak_rss->Set(PeakRssMb());
  std::printf("trained %s in %.1f ms (peak RSS %.1f MB)\n",
              (*base)->name().c_str(), fit_timer.ElapsedMillis(), PeakRssMb());
  {
    // One-line sweep summary off the same counters METRICS would serve:
    // epochs, budgeted row windows/rows visited, peak RSS.
    const MetricsSnapshot snap = registry.Snapshot();
    std::fprintf(stderr,
                 "train metrics: epochs=%llu sweep_windows=%llu "
                 "sweep_rows=%llu peak_rss_mb=%.1f\n",
                 static_cast<unsigned long long>(
                     snap.CounterValue("train_epochs_total")),
                 static_cast<unsigned long long>(
                     snap.CounterValue("data_sweep_windows_total")),
                 static_cast<unsigned long long>(
                     snap.CounterValue("data_sweep_rows_total")),
                 snap.DoubleValue("train_peak_rss_mb"));
  }
  if (Status s = ApplyFactorPrecision(flags, base->get()); !s.ok()) {
    std::fprintf(stderr, "factor-precision: %s\n", s.ToString().c_str());
    return 1;
  }

  if (!model_out.empty()) {
    WallTimer save_timer;
    if (Status s = SaveModelFile(**base, model_out); !s.ok()) {
      std::fprintf(stderr, "save-model: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("model artifact written to %s (%.1f ms)\n", model_out.c_str(),
                save_timer.ElapsedMillis());
  }

  const std::string theta_out = flags.GetString("theta-out", "");
  if (!theta_out.empty()) {
    Result<PreferenceModel> model = ParseTheta(flags.GetString("theta", "g"));
    auto seed = flags.GetInt("seed", 42);
    if (!model.ok() || !seed.ok()) {
      std::fprintf(stderr, "bad theta flag\n");
      return 1;
    }
    Result<std::vector<double>> theta = ComputePreference(
        *model, train, static_cast<uint64_t>(*seed));
    if (!theta.ok()) {
      std::fprintf(stderr, "theta: %s\n", theta.status().ToString().c_str());
      return 1;
    }
    if (Status s = WriteDoubleVector(theta_out, *theta); !s.ok()) {
      std::fprintf(stderr, "theta-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("theta written to %s\n", theta_out.c_str());
  }

  if (!pipeline_out.empty()) {
    Result<PreferenceModel> model = ParseTheta(flags.GetString("theta", "g"));
    Result<CoverageKind> crec = ParseCoverage(flags.GetString("crec", "dyn"));
    auto top_n = flags.GetInt("top-n", 5);
    auto sample = flags.GetInt("sample-size", 500);
    auto seed = flags.GetInt("seed", 42);
    if (!model.ok() || !crec.ok() || !top_n.ok() || !sample.ok() ||
        !seed.ok()) {
      std::fprintf(stderr, "bad pipeline flag\n");
      return 1;
    }
    PipelineConfig config;
    config.theta_model = *model;
    config.coverage = *crec;
    config.top_n = static_cast<int>(*top_n);
    config.sample_size = static_cast<int>(*sample);
    config.seed = static_cast<uint64_t>(*seed);
    config.indicator_accuracy = arec_name == "pop";
    config.fit_base = false;  // fitted above
    Result<std::unique_ptr<GancPipeline>> pipeline = GancPipeline::Create(
        std::move(base).value(), train, config);
    if (!pipeline.ok()) {
      std::fprintf(stderr, "pipeline: %s\n",
                   pipeline.status().ToString().c_str());
      return 1;
    }
    WallTimer save_timer;
    if (Status s = (*pipeline)->SaveFile(pipeline_out); !s.ok()) {
      std::fprintf(stderr, "save-pipeline: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("pipeline artifact written to %s (%.1f ms)\n",
                pipeline_out.c_str(), save_timer.ElapsedMillis());
  }
  return 0;
}

int Recommend(const Flags& flags) {
  if (flags.GetBool("verbose", false)) SetLogLevel(LogLevel::kInfo);

  Result<Prepared> prepared = Prepare(flags, /*print_summary=*/true);
  if (!prepared.ok()) {
    std::fprintf(stderr, "load: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  const RatingDataset& train = prepared->split.train;
  const RatingDataset& test = prepared->split.test;

  auto seed = flags.GetInt("seed", 42);
  auto top_n = flags.GetInt("top-n", 5);
  auto sample = flags.GetInt("sample-size", 500);
  auto threads = flags.GetInt("threads", 1);
  if (!seed.ok() || !top_n.ok() || !sample.ok() || !threads.ok() ||
      *threads < 0) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 1;
  }
  // Batched scoring is deterministic, so the pool only changes wall time.
  std::unique_ptr<ThreadPool> pool;
  if (*threads != 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(*threads));
  }
  const std::string output = flags.GetString("output", "");

  // Pipeline-artifact serving path: everything offline comes from the
  // artifact; only the dataset is rebound.
  const std::string pipeline_in = flags.GetString("load-pipeline", "");
  if (!pipeline_in.empty()) {
    // These knobs are baked into the artifact — refuse silently
    // different behavior.
    for (const char* baked : {"arec", "theta", "crec", "top-n",
                              "sample-size", "theta-out", "load-model"}) {
      if (flags.Has(baked)) {
        std::fprintf(stderr,
                     "--%s conflicts with --load-pipeline (it is stored in "
                     "the pipeline artifact)\n",
                     baked);
        return 1;
      }
    }
    WallTimer load_timer;
    Result<std::unique_ptr<GancPipeline>> pipeline = GancPipeline::LoadFile(
        pipeline_in, train, static_cast<int>(*threads));
    if (!pipeline.ok()) {
      std::fprintf(stderr, "load-pipeline: %s\n",
                   pipeline.status().ToString().c_str());
      return 1;
    }
    std::printf("pipeline loaded from %s (%.1f ms)\n", pipeline_in.c_str(),
                load_timer.ElapsedMillis());
    Result<FactorPrecision> p = FactorPrecisionFlag(flags);
    Status precision_status =
        p.ok() ? (*p == FactorPrecision::kFp64
                      ? Status::OK()
                      : (*pipeline)->SetFactorPrecision(*p))
               : p.status();
    if (!precision_status.ok()) {
      std::fprintf(stderr, "factor-precision: %s\n",
                   precision_status.ToString().c_str());
      return 1;
    }
    Result<TopNCollection> topn = (*pipeline)->RecommendAll();
    if (!topn.ok()) {
      std::fprintf(stderr, "ganc: %s\n", topn.status().ToString().c_str());
      return 1;
    }
    return ReportRun((*pipeline)->base(), (*pipeline)->name(), *topn, train,
                     test, (*pipeline)->top_n(), pool.get(), output);
  }

  // Base recommender: from a model artifact or trained in-process.
  const std::string model_in = flags.GetString("load-model", "");
  std::unique_ptr<Recommender> base;
  if (!model_in.empty()) {
    if (flags.Has("arec")) {
      std::fprintf(stderr,
                   "--arec conflicts with --load-model (the artifact is "
                   "self-describing)\n");
      return 1;
    }
    WallTimer load_timer;
    Result<std::unique_ptr<Recommender>> loaded = LoadModelFileAuto(
        model_in, flags.GetBool("mmap", true), &train);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load-model: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    base = std::move(loaded).value();
    // Load was handed `train`, so dimensions and (where stored) the
    // dataset fingerprint are already validated.
    std::printf("model %s loaded from %s (%.1f ms)\n", base->name().c_str(),
                model_in.c_str(), load_timer.ElapsedMillis());
  } else {
    Result<std::unique_ptr<Recommender>> built = BuildArec(
        flags.GetString("arec", "psvd100"));
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    base = std::move(built).value();
    if (Status s = base->Fit(train, pool.get()); !s.ok()) {
      std::fprintf(stderr, "fit: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (Status s = ApplyFactorPrecision(flags, base.get()); !s.ok()) {
    std::fprintf(stderr, "factor-precision: %s\n", s.ToString().c_str());
    return 1;
  }

  // Preference model.
  Result<PreferenceModel> model = ParseTheta(flags.GetString("theta", "g"));
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<double>> theta = ComputePreference(
      *model, train, static_cast<uint64_t>(*seed));
  if (!theta.ok()) {
    std::fprintf(stderr, "theta: %s\n", theta.status().ToString().c_str());
    return 1;
  }
  const std::string theta_out = flags.GetString("theta-out", "");
  if (!theta_out.empty()) {
    if (Status s = WriteDoubleVector(theta_out, *theta); !s.ok()) {
      std::fprintf(stderr, "theta-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("theta written to %s\n", theta_out.c_str());
  }

  // Coverage recommender + GANC.
  Result<CoverageKind> crec = ParseCoverage(flags.GetString("crec", "dyn"));
  if (!crec.ok()) {
    std::fprintf(stderr, "%s\n", crec.status().ToString().c_str());
    return 1;
  }
  const bool indicator = base->name() == "Pop";
  NormalizedAccuracyScorer norm_scorer(base.get());
  TopNIndicatorScorer ind_scorer(base.get(), &train,
                                 static_cast<int>(*top_n));
  const AccuracyScorer& scorer =
      indicator ? static_cast<const AccuracyScorer&>(ind_scorer)
                : static_cast<const AccuracyScorer&>(norm_scorer);
  Ganc ganc(&scorer, *theta, *crec);
  GancConfig config;
  config.top_n = static_cast<int>(*top_n);
  config.sample_size = static_cast<int>(*sample);
  config.seed = static_cast<uint64_t>(*seed);
  config.pool = pool.get();

  Result<TopNCollection> topn = ganc.RecommendAll(train, config);
  if (!topn.ok()) {
    std::fprintf(stderr, "ganc: %s\n", topn.status().ToString().c_str());
    return 1;
  }
  return ReportRun(*base, ganc.Name(PreferenceModelName(*model)), *topn,
                   train, test, static_cast<int>(*top_n), pool.get(), output);
}

// Shared by `topn` and `precompute-topn`: bind the train split and build
// an unbatched serving snapshot from --load-model / --load-pipeline.
// `prepared` keeps the split alive for the service's lifetime.
Result<std::unique_ptr<RecommendationService>> BuildService(
    const Flags& flags, const Prepared& prepared, int default_n) {
  const std::string model_in = flags.GetString("load-model", "");
  const std::string pipeline_in = flags.GetString("load-pipeline", "");
  if (model_in.empty() == pipeline_in.empty()) {
    return Status::InvalidArgument(
        "exactly one of --load-model / --load-pipeline is required");
  }
  ServiceConfig config;
  config.micro_batching = false;  // offline dumps: no scheduler threads
  config.cache_capacity = 0;
  config.default_n = default_n;
  config.mmap_artifacts = flags.GetBool("mmap", true);
  Result<FactorPrecision> precision = FactorPrecisionFlag(flags);
  if (!precision.ok()) return precision.status();
  config.factor_precision = *precision;
  return model_in.empty()
             ? RecommendationService::LoadPipelineService(
                   pipeline_in, prepared.split.train, config)
             : RecommendationService::LoadModelService(
                   model_in, prepared.split.train, config);
}

// `topn`: print the offline top-N of the first --users users (or, with
// --head-users, the most active users in store-coverage order) in the
// serve-protocol response format, so `diff` against a ganc_serve
// transcript needs no parsing (the serve smoke CI jobs do exactly
// that).
int TopNDump(const Flags& flags) {
  auto top_n = flags.GetInt("top-n", 10);
  auto user_count = flags.GetInt("users", 0);
  auto head = flags.GetInt("head-users", 0);
  if (!top_n.ok() || !user_count.ok() || !head.ok() || *top_n <= 0 ||
      *user_count < 0 || *head < 0) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 1;
  }
  if (*user_count > 0 && *head > 0) {
    std::fprintf(stderr, "--users and --head-users are exclusive\n");
    return 1;
  }
  Result<Prepared> prepared = Prepare(flags, /*print_summary=*/false);
  if (!prepared.ok()) {
    std::fprintf(stderr, "load: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<RecommendationService>> service =
      BuildService(flags, *prepared, static_cast<int>(*top_n));
  if (!service.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  std::vector<UserId> targets;
  if (*head > 0) {
    targets = HeadUsersByActivity(prepared->split.train,
                                  static_cast<size_t>(*head));
  } else {
    int32_t users = (*service)->num_users();
    if (*user_count > 0 && *user_count < users) {
      users = static_cast<int32_t>(*user_count);
    }
    targets.resize(static_cast<size_t>(users));
    std::iota(targets.begin(), targets.end(), UserId{0});
  }
  std::vector<ItemId> items;
  for (UserId u : targets) {
    if (Status s = (*service)->TopNInto(u, static_cast<int>(*top_n), {},
                                        &items);
        !s.ok()) {
      std::fprintf(stderr, "topn: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("%s\n",
                FormatTopNResponse(u, static_cast<int>(*top_n), items)
                    .c_str());
  }
  return 0;
}

// End-of-replay observability report. Written to stderr: replay stdout
// is a byte-parity CI contract (one response line per request, diffable
// against a live ganc_serve transcript), so nothing new may land there.
void ReportReplayMetrics(const MetricsSnapshot& snap) {
  const uint64_t requests = snap.CounterValue("serve_requests_total");
  std::fprintf(stderr,
               "--- replay metrics ---\n"
               "requests: %llu (cache %llu, store %llu, live %llu, "
               "errors %llu)\n",
               static_cast<unsigned long long>(requests),
               static_cast<unsigned long long>(
                   snap.CounterValue("serve_cache_hits_total")),
               static_cast<unsigned long long>(
                   snap.CounterValue("serve_store_hits_total")),
               static_cast<unsigned long long>(
                   snap.CounterValue("serve_live_scored_total")),
               static_cast<unsigned long long>(
                   snap.CounterValue("serve_request_errors_total")));
  if (const MetricValue* lat = snap.Find("serve_request_ns");
      lat != nullptr && lat->u64 > 0) {
    std::fprintf(stderr,
                 "latency:  p50 %.1f us, p95 %.1f us, p99 %.1f us "
                 "(mean %.1f us; power-of-two bucket estimate)\n",
                 HistogramQuantile(*lat, 0.5) / 1000.0,
                 HistogramQuantile(*lat, 0.95) / 1000.0,
                 HistogramQuantile(*lat, 0.99) / 1000.0,
                 static_cast<double>(lat->sum) /
                     static_cast<double>(lat->u64) / 1000.0);
  }
  // One domain line per publish generation served during the replay.
  static constexpr std::string_view kLists = "serve_domain_lists_total{gen=\"";
  for (const auto& [name, value] : snap.series) {
    if (name.rfind(kLists, 0) != 0) continue;
    const size_t quote = name.find('"', kLists.size());
    if (quote == std::string::npos) continue;
    const std::string gen = name.substr(kLists.size(), quote - kLists.size());
    const std::string label = "{gen=\"" + gen + "\"}";
    const uint64_t slots =
        snap.CounterValue("serve_domain_slots_total" + label);
    const double novelty_sum =
        snap.DoubleValue("serve_domain_novelty_bits_sum" + label);
    std::fprintf(
        stderr,
        "domain[gen=%s]: %llu lists, %llu slots, novelty %.6f bits/slot, "
        "coverage %llu distinct items (%llu long-tail), %llu tail slots\n",
        gen.c_str(), static_cast<unsigned long long>(value.u64),
        static_cast<unsigned long long>(slots),
        slots == 0 ? 0.0 : novelty_sum / static_cast<double>(slots),
        static_cast<unsigned long long>(
            snap.CounterValue("serve_domain_items_distinct" + label)),
        static_cast<unsigned long long>(
            snap.CounterValue("serve_domain_tail_items_distinct" + label)),
        static_cast<unsigned long long>(
            snap.CounterValue("serve_domain_tail_slots_total" + label)));
  }
}

// `replay`: drive a serve-protocol transcript through an in-process
// ShardRouter and print one response line per request. The lines go
// through the same dispatcher ganc_serve uses (serve/frontend.h);
// unbatched and single-threaded, so the output is deterministic
// line-for-line — the reference the multi-process router harness diffs
// against, and a way to script snapshot swaps (PUBLISH lines) without
// managing processes.
int Replay(const Flags& flags) {
  const std::string requests_path = flags.GetString("requests", "");
  if (requests_path.empty()) {
    std::fprintf(stderr, "replay requires --requests=PATH\n");
    return 1;
  }
  const std::string model_in = flags.GetString("load-model", "");
  const std::string pipeline_in = flags.GetString("load-pipeline", "");
  if (model_in.empty() == pipeline_in.empty()) {
    std::fprintf(stderr,
                 "exactly one of --load-model / --load-pipeline is "
                 "required\n");
    return 1;
  }
  auto top_n = flags.GetInt("top-n", 10);
  auto num_shards = flags.GetInt("shards", 1);
  if (!top_n.ok() || !num_shards.ok() || *top_n <= 0 || *num_shards < 1) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 1;
  }
  Result<Prepared> prepared = Prepare(flags, /*print_summary=*/false);
  if (!prepared.ok()) {
    std::fprintf(stderr, "load: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  ServiceConfig config;
  config.micro_batching = false;  // deterministic offline replay
  config.cache_capacity = 0;
  config.default_n = static_cast<int>(*top_n);
  config.mmap_artifacts = flags.GetBool("mmap", true);
  Result<FactorPrecision> precision = FactorPrecisionFlag(flags);
  if (!precision.ok()) {
    std::fprintf(stderr, "%s\n", precision.status().ToString().c_str());
    return 1;
  }
  config.factor_precision = *precision;
  Result<std::unique_ptr<ShardRouter>> router = ShardRouter::Load(
      model_in.empty() ? SnapshotKind::kPipeline : SnapshotKind::kModel,
      model_in.empty() ? pipeline_in : model_in, prepared->split.train,
      static_cast<size_t>(*num_shards), config);
  if (!router.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 router.status().ToString().c_str());
    return 1;
  }
  std::ifstream in(requests_path);
  if (!in.is_open()) {
    std::fprintf(stderr, "replay: cannot open %s\n", requests_path.c_str());
    return 1;
  }
  ServeFrontend frontend(**router);
  std::string line;
  bool quit = false;
  while (!quit && std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    std::printf("%s\n", frontend.HandleLine(line, &quit).c_str());
  }
  Result<MetricsSnapshot> snap = (*router)->SnapshotMetrics();
  if (!snap.ok()) {
    std::fprintf(stderr, "metrics: %s\n", snap.status().ToString().c_str());
    return 1;
  }
  ReportReplayMetrics(*snap);
  return 0;
}

// `metrics`: one-shot scrape of a live ganc_serve listener — connect,
// send METRICS, unwrap the framed response, print the text exposition
// to stdout. The Prometheus-less twin of `curl host:port/metrics`.
int MetricsScrape(const Flags& flags) {
  auto port = flags.GetInt("port", -1);
  if (!port.ok() || *port <= 0 || *port > 65535) {
    std::fprintf(stderr,
                 "metrics requires --port=N (a listening ganc_serve)\n");
    return 1;
  }
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "metrics: socket() failed\n");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "metrics: bad --host=%s (want an IPv4 address)\n",
                 host.c_str());
    close(fd);
    return 1;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "metrics: connect %s:%d failed: %s\n", host.c_str(),
                 static_cast<int>(*port), strerror(errno));
    close(fd);
    return 1;
  }
  const char request[] = "METRICS\n";
  for (size_t off = 0; off < sizeof(request) - 1;) {
    const ssize_t n = write(fd, request + off, sizeof(request) - 1 - off);
    if (n <= 0) {
      std::fprintf(stderr, "metrics: write failed\n");
      close(fd);
      return 1;
    }
    off += static_cast<size_t>(n);
  }
  FILE* in = fdopen(fd, "r");
  if (in == nullptr) {
    close(fd);
    return 1;
  }
  char* line = nullptr;
  size_t cap = 0;
  ssize_t len = getline(&line, &cap, in);
  int rc = 1;
  if (len > 0) {
    while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
      line[--len] = '\0';
    }
    const std::string header(line, static_cast<size_t>(len));
    uint64_t lines = 0;
    const size_t pos = header.rfind(" lines=");
    if (header.rfind("OK metrics ", 0) == 0 && pos != std::string::npos) {
      lines = strtoull(header.c_str() + pos + 7, nullptr, 10);
      rc = 0;
      for (uint64_t i = 0; i < lines; ++i) {
        if ((len = getline(&line, &cap, in)) < 0) {
          std::fprintf(stderr, "metrics: truncated framed response\n");
          rc = 1;
          break;
        }
        std::fwrite(line, 1, static_cast<size_t>(len), stdout);
      }
    } else {
      std::fprintf(stderr, "metrics: unexpected response: %s\n",
                   header.c_str());
    }
  } else {
    std::fprintf(stderr, "metrics: server closed the connection\n");
  }
  free(line);
  fclose(in);  // closes fd
  return rc;
}

// `precompute-topn`: materialize the serving store artifact for the
// most active users.
int PrecomputeTopN(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "precompute-topn requires --out=PATH\n");
    return 1;
  }
  auto top_n = flags.GetInt("top-n", 10);
  auto head = flags.GetInt("head-users", 0);
  if (!top_n.ok() || !head.ok() || *top_n <= 0 || *head < 0) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 1;
  }
  Result<Prepared> prepared = Prepare(flags, /*print_summary=*/true);
  if (!prepared.ok()) {
    std::fprintf(stderr, "load: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<RecommendationService>> service =
      BuildService(flags, *prepared, static_cast<int>(*top_n));
  if (!service.ok()) {
    std::fprintf(stderr, "snapshot: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  const std::vector<UserId> users = HeadUsersByActivity(
      prepared->split.train, static_cast<size_t>(*head));
  WallTimer timer;
  Result<TopNStore> store =
      (*service)->BuildStore(users, static_cast<int>(*top_n));
  if (!store.ok()) {
    std::fprintf(stderr, "build: %s\n", store.status().ToString().c_str());
    return 1;
  }
  if (Status s = store->SaveFile(out); !s.ok()) {
    std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "top-N store written to %s (%zu lists of up to %d items for %s, "
      "%.1f ms)\n",
      out.c_str(), store->num_lists(), store->top_n(),
      store->source().c_str(), timer.ElapsedMillis());
  return 0;
}

// `synth`: stream a power-law scale corpus straight into a v3 dataset
// cache. O(users) memory regardless of the rating count, so the 1M-user
// harness point never holds its ~24M ratings in RAM.
int Synth(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "synth requires --out=PATH\n");
    return 1;
  }
  auto users = flags.GetInt("users", 100000);
  auto items = flags.GetInt("items", 0);
  auto mean_activity = flags.GetDouble("mean-activity", 0.0);
  auto seed = flags.GetInt("seed", 1);
  auto threads = flags.GetInt("threads", 1);
  if (!users.ok() || !items.ok() || !mean_activity.ok() || !seed.ok() ||
      !threads.ok() || *users <= 0 || *items < 0 || *threads < 0) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 1;
  }
  ScaleSyntheticSpec spec = PowerLawScaleSpec(*users);
  if (*items > 0) spec.num_items = static_cast<int32_t>(*items);
  if (*mean_activity > 0.0) spec.mean_activity = *mean_activity;
  spec.seed = static_cast<uint64_t>(*seed);
  // Rows are generated from per-user seeded streams, so the output file
  // is byte-identical for every --threads value.
  std::unique_ptr<ThreadPool> pool;
  if (*threads != 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(*threads));
  }
  WallTimer timer;
  Result<int64_t> nnz = GenerateSyntheticStream(spec, out, pool.get());
  if (!nnz.ok()) {
    std::fprintf(stderr, "synth: %s\n", nnz.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "scale corpus '%s' written to %s (%lld ratings, %lld users x %d "
      "items, %.1f ms)\n",
      spec.name.c_str(), out.c_str(), static_cast<long long>(*nnz),
      static_cast<long long>(spec.num_users), spec.num_items,
      timer.ElapsedMillis());
  return 0;
}

// `kernels`: report the scoring kernel dispatch state. `--list` prints
// only the host-supported GANC_KERNEL names, one per line — CI loops
// the parity suite over exactly that output.
int Kernels(const Flags& flags) {
  if (flags.GetBool("list", false)) {
    for (KernelVariant v : SupportedKernelVariants()) {
      std::printf("%s\n", KernelVariantName(v));
    }
    return 0;
  }
  const KernelVariant active = ActiveKernelVariant();
  const std::vector<double> probe = KernelProbeNsPerUser();
  std::printf("scoring kernel dispatch (block of %zu users):\n",
              kFactorKernelUserBlock);
  for (size_t i = 0; i < kNumKernelVariants; ++i) {
    const KernelVariant v = static_cast<KernelVariant>(i);
    std::printf("  %-7s %-11s", KernelVariantName(v),
                KernelVariantSupported(v) ? "supported" : "unsupported");
    if (probe[i] > 0.0) {
      std::printf("  probe %8.1f ns/user", probe[i]);
    }
    if (v == active) std::printf("  <-- active");
    std::printf("\n");
  }
  std::printf("active: %s (selected by %s)\n", KernelVariantName(active),
              ActiveKernelSelection());
  return 0;
}

// Prints a min/max/mean summary of one per-row quantization side table.
void PrintRowParamSummary(const char* label, const std::vector<float>& v) {
  if (v.empty()) {
    std::printf("    %s: empty\n", label);
    return;
  }
  float lo = v[0];
  float hi = v[0];
  double sum = 0.0;
  for (float x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    sum += static_cast<double>(x);
  }
  std::printf("    %s: min %.6g  max %.6g  mean %.6g\n", label,
              static_cast<double>(lo), static_cast<double>(hi),
              sum / static_cast<double>(v.size()));
}

// Decodes a latent-factor model's factor-table section: the scalar
// header is shared by every precision; int8 adds per-row quantization
// side tables worth summarizing. v3 payloads 8-align each table (the
// zero-copy mmap requirement); v2 payloads are packed.
Status InspectFactorSection(uint32_t version, std::string_view payload) {
  PayloadReader r(payload);
  uint8_t tag = 0;
  uint64_t g = 0;
  uint64_t user_rows = 0;
  uint64_t item_rows = 0;
  GANC_RETURN_NOT_OK(r.ReadU8(&tag));
  GANC_RETURN_NOT_OK(r.ReadU64(&g));
  GANC_RETURN_NOT_OK(r.ReadU64(&user_rows));
  GANC_RETURN_NOT_OK(r.ReadU64(&item_rows));
  if (tag < 1 || tag > 3) {
    return Status::InvalidArgument("unknown factor precision tag " +
                                   std::to_string(static_cast<int>(tag)));
  }
  const auto precision = static_cast<FactorPrecision>(tag);
  std::printf(
      "    factor tables: %s, g=%llu, %llu user rows, %llu item rows%s\n",
      FactorPrecisionName(precision), static_cast<unsigned long long>(g),
      static_cast<unsigned long long>(user_rows),
      static_cast<unsigned long long>(item_rows),
      version >= 3 ? ", 8-aligned" : ", packed (v2)");
  const bool aligned = version >= 3;
  const auto skip = [&]() -> Status {
    return aligned ? r.SkipAlign(8) : Status::OK();
  };
  switch (precision) {
    case FactorPrecision::kFp64: {
      for (const char* side : {"user", "item"}) {
        std::vector<double> table;
        GANC_RETURN_NOT_OK(skip());
        GANC_RETURN_NOT_OK(r.ReadVecF64(&table));
        std::printf("    %s table: %zu doubles (%zu bytes)\n", side,
                    table.size(), table.size() * sizeof(double));
      }
      break;
    }
    case FactorPrecision::kFp32: {
      for (const char* side : {"user", "item"}) {
        std::vector<float> table;
        GANC_RETURN_NOT_OK(skip());
        GANC_RETURN_NOT_OK(r.ReadVecF32(&table));
        std::printf("    %s table: %zu floats (%zu bytes)\n", side,
                    table.size(), table.size() * sizeof(float));
      }
      break;
    }
    case FactorPrecision::kInt8: {
      for (const char* side : {"user", "item"}) {
        std::vector<int8_t> q;
        std::vector<float> scale;
        std::vector<float> center;
        std::vector<int32_t> qsum;
        GANC_RETURN_NOT_OK(skip());
        GANC_RETURN_NOT_OK(r.ReadVecI8(&q));
        GANC_RETURN_NOT_OK(skip());
        GANC_RETURN_NOT_OK(r.ReadVecF32(&scale));
        GANC_RETURN_NOT_OK(skip());
        GANC_RETURN_NOT_OK(r.ReadVecF32(&center));
        GANC_RETURN_NOT_OK(skip());
        GANC_RETURN_NOT_OK(r.ReadVecI32(&qsum));
        std::printf("    %s codes: %zu int8 (%zu rows x %llu)\n", side,
                    q.size(), scale.size(),
                    static_cast<unsigned long long>(g));
        const std::string prefix(side);
        PrintRowParamSummary((prefix + " scale").c_str(), scale);
        PrintRowParamSummary((prefix + " center").c_str(), center);
      }
      break;
    }
  }
  return r.ExpectEnd();
}

// `inspect`: dump an artifact's header and section table using the
// validating reader, so a broken file is diagnosed instead of decoded.
int Inspect(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  ArtifactReader reader(is);
  Result<ArtifactHeader> header = reader.ReadHeader();
  if (!header.ok()) {
    std::fprintf(stderr, "header: %s\n", header.status().ToString().c_str());
    return 1;
  }
  const char* kind_name = "?";
  switch (static_cast<ArtifactKind>(header->kind)) {
    case ArtifactKind::kModel:
      kind_name = "model";
      break;
    case ArtifactKind::kDatasetCache:
      kind_name = "dataset-cache";
      break;
    case ArtifactKind::kPipeline:
      kind_name = "pipeline";
      break;
    case ArtifactKind::kTopNStore:
      kind_name = "topn-store";
      break;
  }
  const char* model_name = nullptr;
  if (static_cast<ArtifactKind>(header->kind) == ArtifactKind::kModel) {
    switch (static_cast<ModelType>(header->type_tag)) {
      case ModelType::kPop: model_name = "Pop"; break;
      case ModelType::kRandom: model_name = "Random"; break;
      case ModelType::kRandomWalk: model_name = "RP3b"; break;
      case ModelType::kItemKnn: model_name = "ItemKNN"; break;
      case ModelType::kUserKnn: model_name = "UserKNN"; break;
      case ModelType::kPsvd: model_name = "PSVD"; break;
      case ModelType::kRsvd: model_name = "RSVD"; break;
      case ModelType::kBpr: model_name = "BPR"; break;
      case ModelType::kCofi: model_name = "CofiRank"; break;
    }
  }
  std::printf("%s: GANC artifact, format version %u%s\n", path.c_str(),
              header->version,
              header->version >= 3
                  ? " (64-byte aligned payloads, mmap-able)"
                  : " (packed payloads, stream-only)");
  std::printf("  kind: %u (%s)\n", header->kind, kind_name);
  if (model_name != nullptr) {
    std::printf("  type tag: %u (%s)\n", header->type_tag, model_name);
  } else {
    std::printf("  type tag: %u\n", header->type_tag);
  }
  size_t total_payload = 0;
  for (int section = 0;; ++section) {
    Result<ArtifactReader::Section> s = reader.ReadSection();
    if (!s.ok()) {
      std::fprintf(stderr, "section %d: %s\n", section,
                   s.status().ToString().c_str());
      return 1;
    }
    if (s->id == kEndSectionId) break;
    // ReadSection already verified the stored checksum matches this.
    const uint64_t checksum = Fnv1aHash(s->payload().data(), s->payload().size());
    std::printf("  section %u: %zu bytes, fnv1a %016llx (verified)\n", s->id,
                s->payload().size(),
                static_cast<unsigned long long>(checksum));
    total_payload += s->payload().size();
    const auto kind = static_cast<ArtifactKind>(header->kind);
    if (kind == ArtifactKind::kModel && s->id == kFactorTableSection) {
      if (Status fs = InspectFactorSection(header->version, s->payload());
          !fs.ok()) {
        std::fprintf(stderr, "  factor table decode: %s\n",
                     fs.ToString().c_str());
        return 1;
      }
    }
    if (kind == ArtifactKind::kDatasetCache && s->id == 1) {
      // Dataset-cache dims section: [users i32][items i32][nnz i64].
      PayloadReader dr(s->payload());
      int32_t nu = 0;
      int32_t ni = 0;
      int64_t nr = 0;
      if (dr.ReadI32(&nu).ok() && dr.ReadI32(&ni).ok() &&
          dr.ReadI64(&nr).ok() && dr.ExpectEnd().ok()) {
        std::printf("    dims: %d users x %d items, %lld ratings\n", nu, ni,
                    static_cast<long long>(nr));
      }
    }
  }
  std::printf("  end marker present; %zu payload bytes total\n",
              total_payload);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> known = {
      "dataset",       "ratings-file", "delimiter",     "skip-header",
      "dataset-cache", "kappa",        "arec",          "theta",
      "crec",          "top-n",        "sample-size",   "seed",
      "threads",       "theta-out",    "output",        "out",
      "save-model",    "save-pipeline", "load-model",   "load-pipeline",
      "users",         "head-users",   "factor-precision", "list",
      "mmap",          "items",        "mean-activity", "verbose",
      "requests",      "shards",       "train-memory-budget", "port",
      "host",          "help"};
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
  std::string command = "recommend";
  if (!flags->positional().empty()) {
    command = flags->positional()[0];
    // `inspect` takes the artifact path as a second positional.
    const size_t max_positional = command == "inspect" ? 2 : 1;
    if (flags->positional().size() > max_positional) {
      std::fprintf(stderr, "too many positional arguments\n");
      Usage();
      return 2;
    }
  }
  if (command == "recommend") return Recommend(*flags);
  if (command == "train") return Train(*flags);
  if (command == "cache-dataset") return CacheDataset(*flags);
  if (command == "topn") return TopNDump(*flags);
  if (command == "precompute-topn") return PrecomputeTopN(*flags);
  if (command == "replay") return Replay(*flags);
  if (command == "metrics") return MetricsScrape(*flags);
  if (command == "kernels") return Kernels(*flags);
  if (command == "synth") return Synth(*flags);
  if (command == "inspect") {
    if (flags->positional().size() != 2) {
      std::fprintf(stderr, "inspect requires an artifact path\n");
      Usage();
      return 2;
    }
    return Inspect(flags->positional()[1]);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  Usage();
  return 2;
}
