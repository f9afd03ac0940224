// google-benchmark micro-benchmarks for the performance-critical kernels:
// greedy top-N selection, Dyn coverage updates, KDE sampling, one SGD
// epoch, metric evaluation, theta^G iterations, and the blocked
// multi-user scoring engine.
//
// Pass `--json out.json` to additionally write the results as
// google-benchmark JSON (the committed BENCH_scoring.json snapshot is
// produced this way; see README "Performance").

#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "core/coverage.h"
#include "core/ganc.h"
#include "core/preference.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "recommender/bpr.h"
#include "recommender/factor_kernels.h"
#include "recommender/factor_scoring_engine.h"
#include "recommender/factor_store.h"
#include "recommender/item_knn.h"
#include "recommender/item_similarity.h"
#include "recommender/model_io.h"
#include "recommender/random_walk.h"
#include "recommender/recommender.h"
#include "recommender/scoring_context.h"
#include "recommender/user_knn.h"
#include "serve/recommendation_service.h"
#include "serve/service_shard.h"
#include "serve/shard_router.h"
#include "util/kde.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/stats.h"
#include "util/top_k.h"

namespace ganc {
namespace {

const RatingDataset& BenchTrain() {
  static const RatingDataset* train = [] {
    auto spec = TinySpec();
    spec.num_users = 500;
    spec.num_items = 800;
    spec.mean_activity = 60.0;
    auto ds = GenerateSynthetic(spec);
    return new RatingDataset(std::move(ds).value());
  }();
  return *train;
}

void BM_SelectTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<ScoredItem> items(n);
  Rng rng(1);
  for (size_t i = 0; i < n; ++i) {
    items[i] = {static_cast<int32_t>(i), rng.Uniform()};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectTopK(items, 10));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SelectTopK)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GreedyTopNForUser(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  PopRecommender pop;
  (void)pop.Fit(train);
  NormalizedAccuracyScorer scorer(&pop);
  const auto acc = scorer.ScoreAll(0);
  DynCoverage dyn(train.num_items());
  const auto cands = train.UnratedItems(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyTopNForUser(acc, 0.5, dyn, 0, cands, 5));
  }
}
BENCHMARK(BM_GreedyTopNForUser);

void BM_DynObserve(benchmark::State& state) {
  DynCoverage dyn(10000);
  int32_t i = 0;
  for (auto _ : state) {
    dyn.Observe(i);
    i = (i + 97) % 10000;
  }
}
BENCHMARK(BM_DynObserve);

void BM_KdeFitAndSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> values(n);
  for (double& v : values) v = rng.Uniform();
  for (auto _ : state) {
    Rng local(3);
    benchmark::DoNotOptimize(KdeProportionalSample(values, n / 10, &local));
  }
}
BENCHMARK(BM_KdeFitAndSample)->Arg(500)->Arg(2000);

void BM_RsvdEpoch(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  for (auto _ : state) {
    RsvdRecommender rsvd({.num_factors = 16, .num_epochs = 1});
    (void)rsvd.Fit(train);
    benchmark::DoNotOptimize(rsvd);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          train.num_ratings());
}
BENCHMARK(BM_RsvdEpoch);

void BM_PsvdFit(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  for (auto _ : state) {
    PsvdRecommender psvd({.num_factors = static_cast<int32_t>(state.range(0))});
    (void)psvd.Fit(train);
    benchmark::DoNotOptimize(psvd);
  }
}
BENCHMARK(BM_PsvdFit)->Arg(10)->Arg(40);

void BM_ThetaGIteration(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  for (auto _ : state) {
    GeneralizedPreferenceOptions opts;
    opts.max_iterations = 5;
    benchmark::DoNotOptimize(GeneralizedPreference(train, opts));
  }
}
BENCHMARK(BM_ThetaGIteration);

// --- Batched scoring path: allocating legacy calls vs the zero-allocation
// ScoreInto / RecommendTopNInto / pooled RecommendAllUsers pipeline.

const PsvdRecommender& BenchPsvd() {
  static const PsvdRecommender* psvd = [] {
    auto* model = new PsvdRecommender({.num_factors = 40});
    (void)model->Fit(BenchTrain());
    return model;
  }();
  return *psvd;
}

void BM_ScoreAll_Alloc(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const PsvdRecommender& psvd = BenchPsvd();
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(psvd.ScoreAll(u));
    u = (u + 1) % train.num_users();
  }
}
BENCHMARK(BM_ScoreAll_Alloc);

void BM_ScoreInto_Reuse(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const PsvdRecommender& psvd = BenchPsvd();
  ScoringContext ctx;
  UserId u = 0;
  for (auto _ : state) {
    const std::span<double> out =
        ctx.Scores(static_cast<size_t>(psvd.num_items()));
    psvd.ScoreInto(u, out);
    benchmark::DoNotOptimize(out.data());
    u = (u + 1) % train.num_users();
  }
}
BENCHMARK(BM_ScoreInto_Reuse);

// The blocked FactorScoringEngine batch kernel vs the per-user scalar
// loop above: same scores (bit-identical), one block of `range(0)` users
// per call. Time is per batch; items_per_second counts user-item scores.
void BM_ScoreBatchInto(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const PsvdRecommender& psvd = BenchPsvd();
  const size_t batch = static_cast<size_t>(state.range(0));
  ScoringContext ctx;
  std::vector<UserId> users(batch);
  UserId u = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < batch; ++b) {
      users[b] = u;
      u = (u + 1) % train.num_users();
    }
    const std::span<double> out = ctx.BatchScores(
        batch * static_cast<size_t>(psvd.num_items()));
    psvd.ScoreBatchInto(users, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch) * psvd.num_items());
}
BENCHMARK(BM_ScoreBatchInto)->Arg(8)->Arg(64);

// Full-row top-k with the rated-item mask (the RecommendAllUsers
// selection path) over precomputed score rows.
void BM_SelectTopKDense(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const PsvdRecommender& psvd = BenchPsvd();
  const size_t ni = static_cast<size_t>(psvd.num_items());
  const size_t nu = static_cast<size_t>(train.num_users());
  ScoringContext ctx;
  std::vector<uint8_t> rated(ni, 0);
  // Rows are precomputed so the measurement isolates selection.
  std::vector<double> rows(nu * ni);
  for (size_t uu = 0; uu < nu; ++uu) {
    psvd.ScoreInto(static_cast<UserId>(uu),
                   std::span<double>(rows).subspan(uu * ni, ni));
  }
  UserId u = 0;
  for (auto _ : state) {
    for (const ItemRating& ir : train.ItemsOf(u)) {
      rated[static_cast<size_t>(ir.item)] = 1;
    }
    SelectTopKDenseInto(
        std::span<const double>(rows).subspan(static_cast<size_t>(u) * ni, ni),
        10,
        [&](int32_t item) { return rated[static_cast<size_t>(item)] != 0; },
        &ctx.TopK());
    for (const ItemRating& ir : train.ItemsOf(u)) {
      rated[static_cast<size_t>(ir.item)] = 0;
    }
    benchmark::DoNotOptimize(ctx.TopK().data());
    u = (u + 1) % train.num_users();
  }
}
BENCHMARK(BM_SelectTopKDense);

// Pop's scoring is a plain copy, so this pair isolates the per-user
// allocation cost that ScoreInto eliminates (PSVD above shows the
// compute-bound case where scoring work dominates).
void BM_ScoreAll_Alloc_Pop(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  PopRecommender pop;
  (void)pop.Fit(train);
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pop.ScoreAll(u));
    u = (u + 1) % train.num_users();
  }
}
BENCHMARK(BM_ScoreAll_Alloc_Pop);

void BM_ScoreInto_Reuse_Pop(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  PopRecommender pop;
  (void)pop.Fit(train);
  ScoringContext ctx;
  UserId u = 0;
  for (auto _ : state) {
    const std::span<double> out =
        ctx.Scores(static_cast<size_t>(pop.num_items()));
    pop.ScoreInto(u, out);
    benchmark::DoNotOptimize(out.data());
    u = (u + 1) % train.num_users();
  }
}
BENCHMARK(BM_ScoreInto_Reuse_Pop);

void BM_RecommendTopN_Alloc(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const PsvdRecommender& psvd = BenchPsvd();
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        psvd.RecommendTopN(u, train.UnratedItems(u), 10));
    u = (u + 1) % train.num_users();
  }
}
BENCHMARK(BM_RecommendTopN_Alloc);

void BM_RecommendTopNInto_Reuse(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const PsvdRecommender& psvd = BenchPsvd();
  ScoringContext ctx;
  std::vector<ItemId> out;
  UserId u = 0;
  for (auto _ : state) {
    train.UnratedItemsInto(u, &ctx.Candidates());
    psvd.RecommendTopNInto(u, ctx.Candidates(), 10, ctx, out);
    benchmark::DoNotOptimize(out.data());
    u = (u + 1) % train.num_users();
  }
}
BENCHMARK(BM_RecommendTopNInto_Reuse);

void BM_RecommendAllUsers(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const PsvdRecommender& psvd = BenchPsvd();
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RecommendAllUsers(psvd, train, 10, pool.get()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          train.num_users());
}
BENCHMARK(BM_RecommendAllUsers)->Arg(1)->Arg(2)->Arg(4);

void BM_EvaluateTopN(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  PopRecommender pop;
  (void)pop.Fit(train);
  const auto topn = RecommendAllUsers(pop, train, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateTopN(train, train, topn, MetricsConfig{.top_n = 5}));
  }
}
BENCHMARK(BM_EvaluateTopN);

void BM_GiniCoefficient(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> freq(static_cast<size_t>(state.range(0)));
  for (double& f : freq) f = std::floor(rng.Uniform() * 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GiniCoefficient(freq));
  }
}
BENCHMARK(BM_GiniCoefficient)->Arg(1000)->Arg(20000);

// --- Persistence: artifact load vs training, and the binary dataset
// cache vs re-parsing text. Cold-serve startup cost is load, not train;
// these pairs quantify the gap (see README "Performance").

template <typename Model>
std::string SerializeModel(const Model& model) {
  std::ostringstream os(std::ios::binary);
  if (!model.Save(os).ok()) std::abort();
  return os.str();
}

void BM_ModelTrain_PSVD40(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  for (auto _ : state) {
    PsvdRecommender model({.num_factors = 40});
    (void)model.Fit(train);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ModelTrain_PSVD40);

void BM_ModelLoad_PSVD40(benchmark::State& state) {
  const std::string artifact = SerializeModel(BenchPsvd());
  for (auto _ : state) {
    std::istringstream is(artifact, std::ios::binary);
    PsvdRecommender model;
    if (!model.Load(is, nullptr).ok()) std::abort();
    benchmark::DoNotOptimize(model);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(artifact.size()));
}
BENCHMARK(BM_ModelLoad_PSVD40);

void BM_ModelTrain_RSVD16(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  for (auto _ : state) {
    RsvdRecommender model({.num_factors = 16, .num_epochs = 30});
    (void)model.Fit(train);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ModelTrain_RSVD16);

void BM_ModelLoad_RSVD16(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  RsvdRecommender fitted({.num_factors = 16, .num_epochs = 30});
  (void)fitted.Fit(train);
  const std::string artifact = SerializeModel(fitted);
  for (auto _ : state) {
    std::istringstream is(artifact, std::ios::binary);
    RsvdRecommender model;
    if (!model.Load(is, nullptr).ok()) std::abort();
    benchmark::DoNotOptimize(model);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(artifact.size()));
}
BENCHMARK(BM_ModelLoad_RSVD16);

void BM_ModelTrain_BPR16(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  for (auto _ : state) {
    BprRecommender model({.num_factors = 16, .num_epochs = 30});
    (void)model.Fit(train);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ModelTrain_BPR16);

void BM_ModelLoad_BPR16(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  BprRecommender fitted({.num_factors = 16, .num_epochs = 30});
  (void)fitted.Fit(train);
  const std::string artifact = SerializeModel(fitted);
  for (auto _ : state) {
    std::istringstream is(artifact, std::ios::binary);
    BprRecommender model;
    if (!model.Load(is, nullptr).ok()) std::abort();
    benchmark::DoNotOptimize(model);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(artifact.size()));
}
BENCHMARK(BM_ModelLoad_BPR16);

// Per-process temp path so concurrent micro runs never clobber each
// other's bench files mid-iteration.
std::string BenchTempPath(const char* suffix) {
  return "/tmp/ganc_bench_" + std::to_string(::getpid()) + suffix;
}

void BM_DatasetParseText(benchmark::State& state) {
  const std::string path = BenchTempPath(".csv");
  if (!SaveRatingsFile(BenchTrain(), path).ok()) std::abort();
  for (auto _ : state) {
    auto loaded = LoadRatingsFile(path, {});
    if (!loaded.ok()) std::abort();
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          BenchTrain().num_ratings());
}
BENCHMARK(BM_DatasetParseText);

// Open + EnsureResident: the full load, paying the O(nnz) row
// validation and CSC build that a mapped open defers.
void BM_DatasetCacheLoad(benchmark::State& state) {
  const std::string path = BenchTempPath(".gdc");
  if (!BenchTrain().SaveBinaryFile(path).ok()) std::abort();
  for (auto _ : state) {
    auto loaded = RatingDataset::LoadFile(path);
    if (!loaded.ok() || !loaded->EnsureResident().ok()) std::abort();
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          BenchTrain().num_ratings());
}
BENCHMARK(BM_DatasetCacheLoad);

// Mapped cold open: header + O(users) sections only, no row
// materialization — the out-of-core serving start path.
void BM_DatasetCacheMappedOpen(benchmark::State& state) {
  const std::string path = BenchTempPath("_mmap.gdc");
  if (!BenchTrain().SaveBinaryFile(path).ok()) std::abort();
  for (auto _ : state) {
    auto loaded = RatingDataset::LoadFile(path);
    if (!loaded.ok()) std::abort();
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          BenchTrain().num_ratings());
}
BENCHMARK(BM_DatasetCacheMappedOpen);

// Mapped model load: factor tables borrowed from the file mapping
// (contrast with BM_ModelLoad_PSVD40, which buffers a stream).
void BM_ModelLoadMapped_PSVD40(benchmark::State& state) {
  const std::string path = BenchTempPath("_mmap.gam");
  if (!SaveModelFile(BenchPsvd(), path).ok()) std::abort();
  for (auto _ : state) {
    auto loaded = LoadModelFile(path, nullptr);
    if (!loaded.ok()) std::abort();
    benchmark::DoNotOptimize(loaded);
  }
}
BENCHMARK(BM_ModelLoadMapped_PSVD40);

// Streaming power-law corpus generation (the 1M-user scale harness's
// writer) at a bench-friendly size.
void BM_ScaleSynthStream(benchmark::State& state) {
  ScaleSyntheticSpec spec = PowerLawScaleSpec(2000);
  spec.num_items = 1000;
  const std::string path = BenchTempPath("_scale.gdc");
  int64_t nnz = 0;
  for (auto _ : state) {
    auto result = GenerateSyntheticStream(spec, path);
    if (!result.ok()) std::abort();
    nnz = *result;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * nnz);
}
BENCHMARK(BM_ScaleSynthStream);

// --- Sparse-model fast path: inverted-index KNN training, the id-sorted
// similarity lookup, and the sparse models' batched scoring (see
// BENCH_sparse.json for the PR 3 hash-map-builder baseline).

void BM_KnnTrain_Item(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const int32_t max_profile = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    ItemKnnRecommender model({.max_profile = max_profile});
    (void)model.Fit(train);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          train.num_ratings());
}
BENCHMARK(BM_KnnTrain_Item)->Arg(512)->Arg(32);

void BM_KnnTrain_User(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const int32_t max_audience = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    UserKnnRecommender model({.max_audience = max_audience});
    (void)model.Fit(train);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          train.num_ratings());
}
BENCHMARK(BM_KnnTrain_User)->Arg(512)->Arg(32);

// One 64-user block per iteration through RP3b's dedicated batch walk;
// items_per_second counts user-item scores.
void BM_Rp3bScoreBatch(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  static const RandomWalkRecommender* rp3b = [] {
    auto* model = new RandomWalkRecommender();
    (void)model->Fit(BenchTrain());
    return model;
  }();
  const size_t batch = 64;
  const size_t ni = static_cast<size_t>(rp3b->num_items());
  ScoringContext ctx;
  std::vector<UserId> users(batch);
  UserId u = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < batch; ++b) {
      users[b] = u;
      u = (u + 1) % train.num_users();
    }
    const std::span<double> out = ctx.BatchScores(batch * ni);
    rp3b->ScoreBatchInto(users, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch * ni));
}
BENCHMARK(BM_Rp3bScoreBatch);

// The sparse KNN batch scatter loops (the prefetch-tuning targets; see
// docs/ARCHITECTURE.md "Hardware-adaptive scoring kernels" for the
// measured before/after). One 64-user block per iteration.
template <typename Model>
void SparseScoreBatchLoop(benchmark::State& state, const Model& model) {
  const RatingDataset& train = BenchTrain();
  const size_t batch = 64;
  const size_t ni = static_cast<size_t>(model.num_items());
  ScoringContext ctx;
  std::vector<UserId> users(batch);
  UserId u = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < batch; ++b) {
      users[b] = u;
      u = (u + 1) % train.num_users();
    }
    const std::span<double> out = ctx.BatchScores(batch * ni);
    model.ScoreBatchInto(users, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch * ni));
}

void BM_ItemKnnScoreBatch(benchmark::State& state) {
  static const ItemKnnRecommender* knn = [] {
    auto* model = new ItemKnnRecommender({.num_neighbors = 50});
    (void)model->Fit(BenchTrain());
    return model;
  }();
  SparseScoreBatchLoop(state, *knn);
}
BENCHMARK(BM_ItemKnnScoreBatch);

void BM_UserKnnScoreBatch(benchmark::State& state) {
  static const UserKnnRecommender* knn = [] {
    auto* model = new UserKnnRecommender({.num_neighbors = 50});
    (void)model->Fit(BenchTrain());
    return model;
  }();
  SparseScoreBatchLoop(state, *knn);
}
BENCHMARK(BM_UserKnnScoreBatch);

// Random-pair Similarity(i, j) lookups (the MMR/RBT re-ranker hot call):
// branchless binary search in the id-sorted view vs the legacy O(k)
// scan of the best-first list. range(0) = num_neighbors k.
void BM_SimilarityLookup(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  const ItemSimilarityIndex index(
      train, static_cast<int32_t>(state.range(0)), 512, 31);
  Rng rng(9);
  std::vector<std::pair<ItemId, ItemId>> pairs(4096);
  for (auto& p : pairs) {
    p.first = static_cast<ItemId>(
        rng.UniformInt(static_cast<uint64_t>(train.num_items())));
    p.second = static_cast<ItemId>(
        rng.UniformInt(static_cast<uint64_t>(train.num_items())));
  }
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.Similarity(pairs[q].first, pairs[q].second));
    q = (q + 1) % pairs.size();
  }
}
BENCHMARK(BM_SimilarityLookup)->Arg(50)->Arg(200);

// --- Online serving layer (src/serve) ---------------------------------
//
// The throughput pair is the committed BENCH_serving.json story: the
// same PSVD40 snapshot served through the request micro-batcher vs the
// one-request-at-a-time baseline, hammered by 8 client threads. The
// batched path amortizes the blocked 8-user kernel across concurrent
// requests; the unbatched path scores each request alone. Caches are
// off so every request pays live scoring.

// Serving-shaped corpus: a catalog in the thousands (production
// catalogs are 1e4..1e6 items), so a request's cost is dominated by the
// full-catalog scoring pass the batcher amortizes — at toy catalog
// sizes the fixed per-request cost (wakeups, cache key, selection)
// drowns the kernel.
const RatingDataset& ServeBenchTrain() {
  static const RatingDataset* train = [] {
    auto spec = TinySpec();
    spec.num_users = 300;
    spec.num_items = 6000;
    spec.mean_activity = 40.0;
    auto ds = GenerateSynthetic(spec);
    return new RatingDataset(std::move(ds).value());
  }();
  return *train;
}

const PsvdRecommender& ServeModel() {
  static const PsvdRecommender* model = [] {
    auto* m = new PsvdRecommender(PsvdConfig{.num_factors = 40});
    (void)m->Fit(ServeBenchTrain());
    return m;
  }();
  return *model;
}

// Services are created once and leaked (their worker threads must not
// outlive a destroyed condition variable at static-destruction time —
// the SharedPool convention).
RecommendationService* MakeServeService(bool micro_batching,
                                        size_t cache_capacity) {
  ServiceConfig config;
  config.micro_batching = micro_batching;
  config.cache_capacity = cache_capacity;
  config.num_workers = 1;
  config.default_n = 10;
  // A private registry keeps each service's batch fill its own.
  config.metrics = std::make_shared<MetricsRegistry>();
  auto service =
      RecommendationService::Create(ServeModel(), ServeBenchTrain(), config);
  if (!service.ok()) {
    std::fprintf(stderr, "serve bench: %s\n",
                 service.status().ToString().c_str());
    std::exit(1);
  }
  return service->release();
}

void ServeThroughputLoop(benchmark::State& state,
                         RecommendationService* service) {
  const int32_t num_users = service->num_users();
  UserId u = static_cast<UserId>(
      (state.thread_index() * 131) % num_users);
  std::vector<ItemId> out;
  for (auto _ : state) {
    if (!service->TopNInto(u, 10, {}, &out).ok()) {
      state.SkipWithError("TopN failed");
      return;
    }
    benchmark::DoNotOptimize(out.data());
    u = static_cast<UserId>((u + 1) % num_users);
  }
  state.SetItemsProcessed(state.iterations());
  const MetricsSnapshot snap = service->metrics_registry()->Snapshot();
  const uint64_t batches = snap.CounterValue("serve_batches_total");
  state.counters["mean_batch_fill"] = benchmark::Counter(
      batches == 0 ? 0.0
                   : static_cast<double>(
                         snap.CounterValue("serve_batched_requests_total")) /
                         static_cast<double>(batches),
      benchmark::Counter::kAvgThreads);
}

void BM_ServeThroughput(benchmark::State& state) {
  static RecommendationService* service = MakeServeService(
      /*micro_batching=*/true, /*cache_capacity=*/0);
  ServeThroughputLoop(state, service);
}
BENCHMARK(BM_ServeThroughput)->Threads(8)->UseRealTime();

void BM_ServeThroughputUnbatched(benchmark::State& state) {
  static RecommendationService* service = MakeServeService(
      /*micro_batching=*/false, /*cache_capacity=*/0);
  ServeThroughputLoop(state, service);
}
BENCHMARK(BM_ServeThroughputUnbatched)->Threads(8)->UseRealTime();

// Lone-request latency through the scheduler: no concurrent traffic, so
// the bounded-wait flush must dispatch immediately (this bench is the
// regression guard for that policy — a timer stall would show up as
// ~max_batch_wait per request).
void BM_ServeLatency(benchmark::State& state) {
  static RecommendationService* service = MakeServeService(
      /*micro_batching=*/true, /*cache_capacity=*/0);
  ServeThroughputLoop(state, service);
}
BENCHMARK(BM_ServeLatency);

// Router fan-out cost: the same snapshot served through a ShardRouter
// with 1 vs 3 in-process shards, 8 client threads. One shard measures
// the pure routing overhead over BM_ServeThroughput; three shards show
// what per-shard batcher/cache isolation buys (and costs) when the
// request stream is hash-partitioned — with one worker per shard,
// concurrent requests for different shards no longer contend on a
// single batcher.
ShardRouter* MakeRouter(size_t num_shards) {
  ServiceConfig config;
  config.micro_batching = true;
  config.cache_capacity = 0;
  config.num_workers = 1;
  config.default_n = 10;
  std::vector<std::unique_ptr<ServiceShard>> shards;
  for (size_t k = 0; k < num_shards; ++k) {
    auto service =
        RecommendationService::Create(ServeModel(), ServeBenchTrain(), config);
    if (!service.ok()) {
      std::fprintf(stderr, "router bench: %s\n",
                   service.status().ToString().c_str());
      std::exit(1);
    }
    auto shard = ServiceShard::Adopt(std::move(service).value(),
                                     SnapshotKind::kModel, ServeBenchTrain(),
                                     ShardSpec{k, num_shards}, config);
    if (!shard.ok()) {
      std::fprintf(stderr, "router bench: %s\n",
                   shard.status().ToString().c_str());
      std::exit(1);
    }
    shards.push_back(std::move(shard).value());
  }
  auto router = ShardRouter::FromShards(std::move(shards));
  if (!router.ok()) {
    std::fprintf(stderr, "router bench: %s\n",
                 router.status().ToString().c_str());
    std::exit(1);
  }
  return router->release();
}

void BM_RouterTopN(benchmark::State& state) {
  // Leaked like the serve services (worker-thread static-destruction
  // convention), one router per shard count.
  static ShardRouter* one = MakeRouter(1);
  static ShardRouter* three = MakeRouter(3);
  // The production request path runs with metrics on and 1-in-16 trace
  // sampling, so that is what this bench measures: every iteration pays
  // the sampling decision, sampled ones carry a live RequestTrace
  // through the router and commit it to the ring.
  static TraceRing* ring = new TraceRing(256, 16, 0x6a4c431d2f10ull);
  static std::atomic<uint64_t> seq_counter{0};
  ShardRouter* router = state.range(0) == 1 ? one : three;
  const int32_t num_users = router->num_users();
  UserId u = static_cast<UserId>((state.thread_index() * 131) % num_users);
  std::vector<ItemId> out;
  for (auto _ : state) {
    const uint64_t seq = seq_counter.fetch_add(1, std::memory_order_relaxed);
    std::unique_ptr<RequestTrace> trace =
        ring->ShouldSample(seq) ? ring->Begin(seq) : nullptr;
    if (!router->TopNInto(u, 10, {}, &out, nullptr, trace.get()).ok()) {
      state.SkipWithError("router TopN failed");
      return;
    }
    if (trace != nullptr) {
      trace->Stamp(TraceStage::kRespond, MonotonicNowNs());
      ring->Commit(std::move(trace));
    }
    benchmark::DoNotOptimize(out.data());
    u = static_cast<UserId>((u + 1) % num_users);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterTopN)->Arg(1)->Arg(3)->Threads(8)->UseRealTime();

// Repeated identical request: the sharded LRU hit path.
void BM_ServeCacheHit(benchmark::State& state) {
  static RecommendationService* service = MakeServeService(
      /*micro_batching=*/true, /*cache_capacity=*/4096);
  std::vector<ItemId> out;
  for (auto _ : state) {
    if (!service->TopNInto(7, 10, {}, &out).ok()) {
      state.SkipWithError("TopN failed");
      return;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCacheHit);

// --- Runtime-dispatched factor kernels -------------------------------
//
// ScoreBatchInto per dispatch variant x table precision — the committed
// BENCH_kernel.json story. Registered dynamically (not via BENCHMARK)
// because the variant set is a host property: only variants the CPU can
// actually run are timed. Each benchmark pins its variant with
// ForceKernelVariant and reports the resident factor-table bytes of the
// precision it scores from.

const FactorStore& KernelBenchStore(FactorPrecision precision) {
  // One fp64 table set (500 x 40 users, 800 x 40 items, serve-shaped)
  // narrowed/quantized per precision, so the three stores score the
  // same model.
  static const auto* stores = [] {
    auto* built = new std::array<FactorStore, 3>();
    Rng rng(11);
    const size_t nu = 500, ni = 800, g = 40;
    std::vector<double> user(nu * g);
    std::vector<double> item(ni * g);
    for (double& v : user) v = rng.Uniform() - 0.5;
    for (double& v : item) v = rng.Uniform() - 0.5;
    const FactorPrecision precisions[3] = {FactorPrecision::kFp64,
                                           FactorPrecision::kFp32,
                                           FactorPrecision::kInt8};
    for (size_t p = 0; p < 3; ++p) {
      (*built)[p].AdoptFp64(user, item, nu, ni, g);
      if (!(*built)[p].SetPrecision(precisions[p]).ok()) std::abort();
    }
    return built;
  }();
  switch (precision) {
    case FactorPrecision::kFp64: return (*stores)[0];
    case FactorPrecision::kFp32: return (*stores)[1];
    case FactorPrecision::kInt8: return (*stores)[2];
  }
  std::abort();
}

void FactorScoreLoop(benchmark::State& state, KernelVariant variant,
                     FactorPrecision precision) {
  if (!ForceKernelVariant(variant).ok()) {
    state.SkipWithError("variant unsupported on this host");
    return;
  }
  const FactorStore& store = KernelBenchStore(precision);
  FactorView view;
  store.BindView(&view);
  view.num_items = static_cast<int32_t>(store.item_rows());
  const FactorScoringEngine engine(view);
  const size_t batch = 64;
  const size_t ni = store.item_rows();
  ScoringContext ctx;
  std::vector<UserId> users(batch);
  UserId u = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < batch; ++b) {
      users[b] = u;
      u = (u + 1) % static_cast<UserId>(store.user_rows());
    }
    const std::span<double> out = ctx.BatchScores(batch * ni);
    engine.ScoreBatchInto(users, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch * ni));
  state.counters["factor_table_bytes"] = benchmark::Counter(
      static_cast<double>(store.ResidentBytes()));
  ResetKernelDispatch();
}

void RegisterFactorScoreBenchmarks() {
  for (const KernelVariant v : SupportedKernelVariants()) {
    for (const FactorPrecision p :
         {FactorPrecision::kFp64, FactorPrecision::kFp32,
          FactorPrecision::kInt8}) {
      const std::string name = std::string("BM_FactorScore_") +
                               KernelVariantName(v) + "_" +
                               FactorPrecisionName(p);
      benchmark::RegisterBenchmark(
          name.c_str(), [v, p](benchmark::State& state) {
            FactorScoreLoop(state, v, p);
          });
    }
  }
}

void BM_OslgEndToEnd(benchmark::State& state) {
  const RatingDataset& train = BenchTrain();
  PopRecommender pop;
  (void)pop.Fit(train);
  TopNIndicatorScorer scorer(&pop, &train, 5);
  const auto theta = bench::ThetaG(train);
  for (auto _ : state) {
    GancConfig cfg;
    cfg.top_n = 5;
    cfg.sample_size = static_cast<int>(state.range(0));
    benchmark::DoNotOptimize(
        bench::RunGanc(scorer, theta, CoverageKind::kDyn, train, cfg));
  }
}
BENCHMARK(BM_OslgEndToEnd)->Arg(50)->Arg(200);

}  // namespace
}  // namespace ganc

int main(int argc, char** argv) {
  // `--json out.json` is shorthand for google-benchmark's own
  // --benchmark_out/--benchmark_out_format pair, re-injected before
  // Initialize so the library handles the file reporting.
  const std::string json_path = ganc::bench::ExtractJsonFlag(&argc, argv);
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, format_flag;
  if (!json_path.empty()) {
    out_flag = "--benchmark_out=" + json_path;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  ganc::RegisterFactorScoreBenchmarks();
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
