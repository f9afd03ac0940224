// The TCP half of a serve workload: cold launches of the real
// `ganc_serve` (setup_s), an open-loop warm-up, the open-loop phase at
// the nominal rate over 4 connections, a closed-loop saturation phase
// over 16, and METRICSNAP scrapes around the open-loop phase.

#ifndef GANC_BENCH_E2E_SERVE_RUN_H_
#define GANC_BENCH_E2E_SERVE_RUN_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "serve_checks.h"
#include "serve_inputs.h"
#include "util/metrics.h"

namespace ganc::e2e {

// Saturation: 16 callers that each wait for their reply. The server
// handles a connection's lines one at a time, so callers, not pipelined
// requests, are what reach the micro-batcher together; with 4
// connections x 4 outstanding, throughput swung 9.1K-15.5K/s across
// seeds on serve_live as the server's small replies waited on ACKs.
constexpr int kSatConns = 16;
constexpr double kSloS = 0.010;     ///< goodput latency limit
constexpr double kTimeoutS = 10.0;  ///< unanswered this long: the run fails

struct TcpRun {
  std::vector<double> setup_s;  ///< per cold launch
  Phase warmup, open, sat;
  MetricsSnapshot before, after;  ///< server metrics around the open-loop phase
  double before_scrape_s = 0.0;   ///< round trip of the first scrape
  double peak_rss_mb = 0.0;
};

inline MetricsSnapshot Scrape(LoadGen& gen, double* round_trip_s = nullptr) {
  static constexpr std::string_view kPrefix = "OK metricsnap ";
  const double t0 = Now();
  const std::string resp = gen.RoundTrip("METRICSNAP", kTimeoutS);
  if (round_trip_s != nullptr) *round_trip_s = Now() - t0;
  if (resp.rfind(kPrefix, 0) != 0) Die("bad METRICSNAP reply: " + resp);
  return Check(
      MetricsSnapshot::Parse(std::string_view(resp).substr(kPrefix.size())),
      "parse METRICSNAP");
}

inline std::vector<std::string> ServerArgs(ServeMode mode,
                                           const ServeInputs& in) {
  std::vector<std::string> args = {
      "--dataset-cache=" + in.cache, "--kappa=1",  "--port=0",
      "--daemon",                    "--workers=" + std::to_string(kThreads),
      "--default-n=" + std::to_string(kListLen)};
  if (mode == ServeMode::kSession) {
    args.push_back("--pipeline=" + in.artifact);
  } else {
    args.push_back("--model=" + in.artifact);
  }
  if (mode == ServeMode::kHead) args.push_back("--store=" + in.store);
  return args;
}

inline TcpRun RunTcp(const Options& opt, const Sizes& sizes,
                     const ServeWorkload& wl, const ServeInputs& in,
                     const Traffic& traffic, const std::string& dir) {
  TcpRun run;
  const std::vector<std::string> args = ServerArgs(wl.mode, in);
  // Set-up is measured from exec to the first answered live request:
  // the least active user is never in the store, so the probe takes the
  // live path and pays any lazy set-up (row materialization of the
  // mapped corpus) that a real first user would.
  const UserId probe = in.by_activity.back();
  const std::string probe_line =
      "TOPN user=" + std::to_string(probe) + " n=" + std::to_string(kListLen);
  std::unique_ptr<ServerProcess> server;
  for (int k = 0; k < sizes.launches; ++k) {
    if (server) server->Stop();
    const double t0 = Now();
    server =
        ServerProcess::Launch(GANC_SERVE_BINARY, args, dir + "/server.log");
    LoadGen first(server->port(), 0);
    const std::string resp = first.RoundTrip(probe_line, kTimeoutS);
    run.setup_s.push_back(Now() - t0);
    std::vector<ItemId> items;
    if (!WellFormedTopN(resp, probe, in.train.num_items(), &items)) {
      Die("bad reply to the set-up probe: " + resp);
    }
  }

  LoadGen gen(server->port(), kConns);
  Rng warm_rng = StreamRng(opt.seed, 1);
  run.warmup.name = "warmup";
  run.warmup.reqs = traffic.Schedule(wl.rate, sizes.warmup_s, &warm_rng);
  run.warmup.outs = gen.RunOpenLoop(run.warmup.reqs, kTimeoutS);

  run.before = Scrape(gen, &run.before_scrape_s);
  Rng open_rng = StreamRng(opt.seed, 2);
  run.open.name = "open_loop";
  run.open.reqs = traffic.Schedule(wl.rate, sizes.open_s, &open_rng);
  if (wl.mode == ServeMode::kSession) {
    // Two snapshot swaps to a byte-identical artifact: the lists stay
    // the same, but each swap invalidates the version-keyed cache.
    for (const double at : {sizes.open_s / 3.0, 2.0 * sizes.open_s / 3.0}) {
      run.open.reqs.push_back(
          {at, gen.control(), "PUBLISH path=" + in.artifact_copy});
    }
    std::stable_sort(run.open.reqs.begin(), run.open.reqs.end(),
                     [](const Request& a, const Request& b) {
                       return a.due < b.due;
                     });
  }
  run.open.outs = gen.RunOpenLoop(run.open.reqs, kTimeoutS);
  run.after = Scrape(gen);

  LoadGen sat_gen(server->port(), kSatConns);
  std::vector<Rng> sat_rngs;
  for (int c = 0; c < kSatConns; ++c) {
    sat_rngs.push_back(StreamRng(opt.seed, 10 + c));
  }
  run.sat.name = "saturation";
  auto closed = sat_gen.RunClosedLoop(
      sizes.sat_s,
      [&](int conn) {
        return traffic.Next(conn, kSatConns,
                            &sat_rngs[static_cast<size_t>(conn)]);
      },
      kTimeoutS);
  for (auto& [req, out] : closed) {
    run.sat.reqs.push_back(std::move(req));
    run.sat.outs.push_back(std::move(out));
  }
  run.peak_rss_mb = VmHwmMb(server->pid());
  server->Stop();
  return run;
}

/// Sent / succeeded / failed and generator lateness of one phase.
inline std::string PhaseHealth(const Phase& p, int32_t num_items) {
  uint64_t ok = 0;
  std::vector<double> late_ms;
  for (size_t i = 0; i < p.reqs.size(); ++i) {
    ok += Served(p.reqs[i], p.outs[i].response, num_items);
    late_ms.push_back((p.outs[i].sent - p.reqs[i].due) * 1e3);
  }
  return Json()
      .Int("sent", static_cast<int64_t>(p.reqs.size()))
      .Int("succeeded", static_cast<int64_t>(ok))
      .Int("failed", static_cast<int64_t>(p.reqs.size() - ok))
      .Num("late_p50_ms", Quantile(late_ms, 0.5))
      .Num("late_p99_ms", Quantile(late_ms, 0.99))
      .Num("late_max_ms", Quantile(late_ms, 1.0))
      .str();
}

/// Difference of one series between two scrapes (counters; histogram
/// sample counts).
inline double Delta(const TcpRun& run, const std::string& name) {
  return static_cast<double>(run.after.CounterValue(name)) -
         static_cast<double>(run.before.CounterValue(name));
}

inline double DeltaSum(const TcpRun& run, const std::string& name) {
  const MetricValue* a = run.after.Find(name);
  const MetricValue* b = run.before.Find(name);
  return (a ? static_cast<double>(a->sum) : 0.0) -
         (b ? static_cast<double>(b->sum) : 0.0);
}

/// Change of a `{gen="G"}`-labeled family, summed over generations
/// (u64 counters, or double counters when `dcounter`).
inline double FamilyDelta(const TcpRun& run, const std::string& family,
                          bool dcounter) {
  auto total = [&](const MetricsSnapshot& s) {
    double sum = 0.0;
    for (auto it = s.series.lower_bound(family + "{");
         it != s.series.end() && it->first.rfind(family + "{", 0) == 0;
         ++it) {
      sum += dcounter ? it->second.d : static_cast<double>(it->second.u64);
    }
    return sum;
  };
  return total(run.after) - total(run.before);
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// The base counts behind TcpLayerMetrics' ratios (open-loop phase).
inline std::string TcpBaseCounts(const TcpRun& run) {
  Json j;
  for (const char* name :
       {"serve_lines_total", "serve_requests_total", "serve_cache_hits_total",
        "serve_store_hits_total", "serve_live_scored_total",
        "serve_batches_total", "serve_batched_requests_total",
        "serve_waited_flushes_total", "serve_publishes_total",
        "serve_publish_rejects_total"}) {
    j.Num(name, Delta(run, name));
  }
  return j.str();
}

/// Per-layer metrics measured on the real server over the open-loop
/// phase (METRICSNAP deltas plus client-side timing).
inline MetricMap TcpLayerMetrics(const TcpRun& run) {
  // Client view of each request from its actual send, so generator
  // lateness is not charged to the transport.
  std::vector<double> client_s;
  uint64_t consumes = 0;
  double control_s = run.before_scrape_s;
  double control_lines = 1.0;  // the first scrape's own line is in the delta
  for (size_t i = 0; i < run.open.reqs.size(); ++i) {
    const Outcome& o = run.open.outs[i];
    const Verb v = VerbOf(run.open.reqs[i].line);
    if (v == Verb::kPublish) {
      control_s += o.done - o.sent;
      control_lines += 1.0;
      continue;
    }
    client_s.push_back(o.done - o.sent);
    consumes +=
        v == Verb::kConsume && o.response.rfind("OK consumed=", 0) == 0;
  }
  // Control lines (scrape, PUBLISH) are handled by the server too; their
  // client round trips bound their line time and are taken out.
  const double line_ns = DeltaSum(run, "serve_line_ns") - control_s * 1e9;
  const double lines = Delta(run, "serve_line_ns") - control_lines;
  const double line_s = Ratio(line_ns, lines) * 1e-9;
  const double client_s_mean = Mean(client_s);
  const double requests = Delta(run, "serve_requests_total");
  const double batches = Delta(run, "serve_batches_total");
  const double batched = Delta(run, "serve_batched_requests_total");
  const double slots = FamilyDelta(run, "serve_domain_slots_total", false);
  return {
      {"ganc_serve.transport_pct",
       100.0 * Ratio(client_s_mean - line_s, client_s_mean)},
      {"factor_kernels.user_us",
       Ratio(DeltaSum(run, "serve_kernel_ns"), batched) * 1e-3},
      {"top_k.select_us", Ratio(DeltaSum(run, "serve_select_ns"),
                                Delta(run, "serve_select_ns")) *
                              1e-3},
      {"result_cache.hit_ratio",
       Ratio(Delta(run, "serve_cache_hits_total"), requests)},
      {"topn_store.hit_ratio",
       Ratio(Delta(run, "serve_store_hits_total"), requests)},
      {"recommendation_service.live_ratio",
       Ratio(Delta(run, "serve_live_scored_total"), requests)},
      {"micro_batcher.fill", Ratio(batched, batches)},
      {"micro_batcher.waited_flush_ratio",
       Ratio(Delta(run, "serve_waited_flushes_total"), batches)},
      {"session_overlay.consumes", static_cast<double>(consumes)},
      {"service_shard.publishes", Delta(run, "serve_publishes_total")},
      {"serve_metrics.tail_slot_ratio",
       Ratio(FamilyDelta(run, "serve_domain_tail_slots_total", false), slots)},
      {"serve_metrics.novelty_bits",
       Ratio(FamilyDelta(run, "serve_domain_novelty_bits_sum", true), slots)},
  };
}

}  // namespace ganc::e2e

#endif  // GANC_BENCH_E2E_SERVE_RUN_H_
