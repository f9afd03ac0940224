// One serve workload end to end: inputs, the TCP run, correctness
// checks, end-to-end metrics and, when traced, the per-layer breakdown.

#ifndef GANC_BENCH_E2E_SERVE_WORKLOAD_H_
#define GANC_BENCH_E2E_SERVE_WORKLOAD_H_

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "serve_checks.h"
#include "serve_inputs.h"
#include "serve_replay.h"
#include "serve_run.h"
#include "spans.h"

namespace ganc::e2e {

inline WorkloadResult RunServeWorkload(const Options& opt, const Sizes& sizes,
                                       const ServeWorkload& wl,
                                       const std::string& dir) {
  WorkloadResult r;
  r.workload = wl.name;
  const auto in = BuildServeInputs(sizes, wl.mode, opt.seed, dir);
  const Traffic traffic(wl.mode, *in);
  const TcpRun run = RunTcp(opt, sizes, wl, *in, traffic, dir);
  const int32_t num_items = in->train.num_items();

  const CheckTally t =
      CheckPhases({&run.warmup, &run.open, &run.sat}, *in, wl.mode, &r);
  r.attempted = t.attempted;
  r.failed = t.failed;
  Fnv1a digest;
  DigestPhase(run.warmup, &digest);
  DigestPhase(run.open, &digest);
  r.digest = digest.Hex();

  // Latency at the nominal rate, from each request's due time.
  std::vector<double> latency_ms;
  for (size_t i = 0; i < run.open.reqs.size(); ++i) {
    if (VerbOf(run.open.reqs[i].line) == Verb::kPublish) continue;
    latency_ms.push_back((run.open.outs[i].done - run.open.reqs[i].due) * 1e3);
  }
  // Goodput: saturation completions that were served and met the SLO (a
  // failed request misses it), counted per half-second window; the
  // median window is robust to a short stall elsewhere on the host.
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(sizes.sat_s / 0.5));
  const double window_s = sizes.sat_s / static_cast<double>(windows);
  std::vector<double> good(windows, 0.0);
  for (size_t i = 0; i < run.sat.reqs.size(); ++i) {
    const Outcome& o = run.sat.outs[i];
    if (o.done < sizes.sat_s && o.done - o.sent <= kSloS &&
        Served(run.sat.reqs[i], o.response, num_items)) {
      const size_t w = static_cast<size_t>(o.done / window_s);
      good[std::min(windows - 1, w)] += 1.0;
    }
  }
  const ServedQuality q = QualityOf(run.open, *in);
  r.e2e = {
      {"setup_s", Median(run.setup_s)},
      {"p50_ms", Quantile(latency_ms, 0.50)},
      {"p95_ms", Quantile(latency_ms, 0.95)},
      {"throughput_per_s", Median(good) / window_s},
      {"train_s", in->train_s()},
      {"peak_rss_mb", run.peak_rss_mb},
  };

  std::string setups;
  for (const double s : run.setup_s) {
    setups += (setups.empty() ? "" : ", ") + JsonNumber(s);
  }
  r.health.Raw("warmup", PhaseHealth(run.warmup, num_items))
      .Raw("open_loop", PhaseHealth(run.open, num_items))
      .Raw("saturation", PhaseHealth(run.sat, num_items))
      .Num("rate_per_s", wl.rate)
      .Num("goodput_whole_phase_per_s",
           std::accumulate(good.begin(), good.end(), 0.0) / sizes.sat_s)
      .Int("latency_samples", static_cast<int64_t>(latency_ms.size()))
      .Num("p99_ms", Quantile(latency_ms, 0.99))
      .Raw("setup_launches_s", "[" + setups + "]")
      .Int("verified", static_cast<int64_t>(t.verified))
      .Int("mismatched", static_cast<int64_t>(t.mismatched))
      .Int("malformed", static_cast<int64_t>(t.malformed))
      .Int("err_replies", static_cast<int64_t>(t.errors))
      .Num("error_pct", 100.0 * Ratio(static_cast<double>(t.failed),
                                      static_cast<double>(t.attempted)))
      .Raw("served_quality", Json()
                                 .Num("lt_accuracy", q.lt_accuracy)
                                 .Num("coverage", q.coverage)
                                 .Num("gini", q.gini)
                                 .str());
  if (!opt.trace) return r;

  r.layer = TcpLayerMetrics(run);
  r.layer["recommender.fit_s"] = in->fit_s;
  r.layer["artifact.save_ms"] = in->save_s * 1e3;
  r.layer["trace.pipeline.create_pct"] =
      100.0 * Ratio(in->create_s, in->train_s());

  // Replay twice, spans off then on; the difference is the tracing cost.
  const ReplayResult off = Replayer(wl.mode, *in, false).Run(run);
  const ReplayResult on = Replayer(wl.mode, *in, true).Run(run);
  for (const ReplayResult* rep : {&off, &on}) {
    if (rep->digest != r.digest || rep->mismatches != 0) {
      r.Problem("in-process replay differs from the TCP run (" +
                std::to_string(rep->mismatches) + " replies)");
    }
  }
  const double unit_on =
      Ratio(on.unit_sum_ns, static_cast<double>(on.units));
  const double unit_off =
      Ratio(off.unit_sum_ns, static_cast<double>(off.units));
  r.layer["dataset.open_ms"] = on.open_ms;
  r.layer["artifact.load_ms"] = on.load_ms;
  r.layer["trace.unit_us"] = unit_on * 1e-3;
  r.layer["trace.overhead_pct"] = 100.0 * (unit_on - unit_off) / unit_off;

  std::vector<const SpanLog*> logs;
  for (const auto& log : on.logs) logs.push_back(log.get());
  const std::map<std::string, double> self_ns = ComputeSelfTimes(logs);
  auto share = [&](const char* span) {
    const auto it = self_ns.find(span);
    return it == self_ns.end() ? 0.0 : 100.0 * it->second / on.unit_sum_ns;
  };
  static const char* kLayers[] = {
      "protocol.parse",          "session_overlay.collect",
      "session_overlay.consume", "shard_router.route",
      "result_cache.probe",      "topn_store.probe",
      "micro_batcher.score",     "protocol.format"};
  for (const char* layer : kLayers) {
    r.layer[std::string("trace.") + layer + "_pct"] = share(layer);
  }
  r.layer["trace.unattributed_pct"] = share("request");
  WriteSpansJsonl(opt.spans_path, wl.name, logs, 16);
  r.health.Raw("open_loop_metric_deltas", TcpBaseCounts(run))
      .Num("replay_unit_off_us", unit_off * 1e-3)
      .Int("replay_units", static_cast<int64_t>(on.units))
      .Str("spans", opt.spans_path);
  return r;
}

}  // namespace ganc::e2e

#endif  // GANC_BENCH_E2E_SERVE_WORKLOAD_H_
