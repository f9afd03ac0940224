// In-process replay of a serve workload's schedule for the per-layer
// breakdown. Four threads each stand in for one TCP connection (plus
// one for PUBLISH) and replay the same requests at the same due times
// through the library calls `ganc_serve` makes for a line:
//
//   ParseServeRequest -> SessionRegistry::CollectExclusions ->
//   ShardRouter::TopNInto (with a benchmark-owned RequestTrace whose
//   stage stamps are read back) -> FormatTopNResponse
//
// Spans around those calls and between the trace stamps give each
// layer's self time. The replay's responses must equal the TCP run's.

#ifndef GANC_BENCH_E2E_SERVE_REPLAY_H_
#define GANC_BENCH_E2E_SERVE_REPLAY_H_

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/protocol.h"
#include "serve/session_overlay.h"
#include "serve/shard_router.h"
#include "serve_checks.h"
#include "serve_inputs.h"
#include "serve_run.h"
#include "spans.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ganc::e2e {

struct ReplayResult {
  double open_ms = 0.0;  ///< mapped open of the dataset cache
  double load_ms = 0.0;  ///< snapshot (and store) load into a ShardRouter
  double unit_sum_ns = 0.0;  ///< summed TOPN/CONSUME handling time
  uint64_t units = 0;
  uint64_t mismatches = 0;  ///< replies differing from the TCP run's
  std::string digest;
  std::vector<std::unique_ptr<SpanLog>> logs;  ///< empty with spans off
};

class Replayer {
 public:
  Replayer(ServeMode mode, const ServeInputs& in, bool spans)
      : spans_(spans) {
    ServiceConfig config;
    config.num_workers = kThreads;
    config.default_n = kListLen;
    config.metrics = std::make_shared<MetricsRegistry>();
    SpanLog* log = NewLog();
    const uint64_t t0 = MonotonicNowNs();
    train_ = Check(RatingDataset::LoadFileAuto(in.cache, true), "open corpus");
    const uint64_t t1 = MonotonicNowNs();
    router_ = Check(ShardRouter::Load(mode == ServeMode::kSession
                                          ? SnapshotKind::kPipeline
                                          : SnapshotKind::kModel,
                                      in.artifact, train_, 1, config),
                    "load router");
    if (mode == ServeMode::kHead) {
      auto store = Check(TopNStore::LoadFileAuto(in.store, true), "load store");
      Check(router_->AttachStore(
                std::make_shared<const TopNStore>(std::move(store))),
            "attach store");
    }
    const uint64_t t2 = MonotonicNowNs();
    std::vector<ItemId> out;
    Check(router_->TopNInto(in.by_activity.back(), kListLen, {}, &out),
          "first request");
    const uint64_t t3 = MonotonicNowNs();
    result_.open_ms = static_cast<double>(t1 - t0) * 1e-6;
    result_.load_ms = static_cast<double>(t2 - t1) * 1e-6;
    if (log != nullptr) {
      log->Add("dataset.open", t0, t1);
      log->Add("shard_router.load", t1, t2);
      log->Add("first_request", t2, t3);
    }
  }

  /// Replays the warm-up untimed, then the open-loop phase, comparing
  /// every reply with the TCP run's.
  ReplayResult Run(const TcpRun& tcp) && {
    Fnv1a digest;
    Play(tcp.warmup, false, &digest);
    Play(tcp.open, true, &digest);
    result_.digest = digest.Hex();
    return std::move(result_);
  }

 private:
  SpanLog* NewLog() {
    if (!spans_) return nullptr;
    result_.logs.push_back(std::make_unique<SpanLog>(result_.logs.size()));
    return result_.logs.back().get();
  }

  /// Replays one phase at its due times; a `timed` phase adds to the
  /// unit totals and, with spans on, records spans.
  void Play(const Phase& phase, bool timed, Fnv1a* digest) {
    std::vector<std::string> replies(phase.reqs.size());
    std::vector<SpanLog*> logs;
    for (int c = 0; c <= kConns; ++c) {
      logs.push_back(timed ? NewLog() : nullptr);
    }
    std::vector<double> unit_ns(kConns + 1, 0.0);
    std::vector<uint64_t> units(kConns + 1, 0);
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c <= kConns; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < phase.reqs.size(); ++i) {
          const Request& r = phase.reqs[i];
          if (r.conn != c) continue;
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(r.due)));
          replies[i] = Handle(r.line, logs[static_cast<size_t>(c)], i + 1,
                              &unit_ns[static_cast<size_t>(c)]);
          units[static_cast<size_t>(c)] += VerbOf(r.line) != Verb::kPublish;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < phase.reqs.size(); ++i) {
      if (VerbOf(phase.reqs[i].line) == Verb::kPublish) continue;
      digest->Add(replies[i]);
      result_.mismatches += replies[i] != phase.outs[i].response;
    }
    if (timed) {
      for (int c = 0; c <= kConns; ++c) {
        result_.unit_sum_ns += unit_ns[static_cast<size_t>(c)];
        result_.units += units[static_cast<size_t>(c)];
      }
    }
  }

  /// One request line, handled as tools/ganc_serve.cc's HandleLine does.
  std::string Handle(const std::string& line, SpanLog* log, uint64_t request,
                     double* unit_ns) {
    const uint64_t t0 = MonotonicNowNs();
    Result<ServeRequest> parsed = ParseServeRequest(line);
    const uint64_t t1 = MonotonicNowNs();
    if (!parsed.ok()) return FormatError(parsed.status().message());
    const ServeRequest& req = *parsed;
    if (req.command == ServeCommand::kPublish) {
      uint64_t version = 0;
      const Status s = router_->Publish(req.path, &version);
      if (log != nullptr) {
        log->Add("service_shard.publish", t0, MonotonicNowNs());
      }
      return s.ok() ? FormatOk("version=" + std::to_string(version))
                    : FormatError(s.message());
    }
    if (req.command == ServeCommand::kConsume) {
      for (const ItemId i : req.items) {
        if (i < 0 || i >= router_->num_items()) {
          return FormatError("consumed item id out of range");
        }
      }
      if (req.user < 0 || req.user >= router_->num_users()) {
        return FormatError("user id out of range");
      }
      sessions_.MarkConsumed(req.session, req.user, req.items);
      const uint64_t t2 = MonotonicNowNs();
      std::string reply =
          FormatOk("consumed=" + std::to_string(req.items.size()));
      const uint64_t t3 = MonotonicNowNs();
      *unit_ns += static_cast<double>(t3 - t0);
      if (log != nullptr) {
        const uint64_t root = log->Add("request", t0, t3, 0, request);
        log->Add("protocol.parse", t0, t1, root, request);
        log->Add("session_overlay.consume", t1, t2, root, request);
        log->Add("protocol.format", t2, t3, root, request);
      }
      return reply;
    }
    std::vector<ItemId> exclusions;
    std::span<const ItemId> excl = req.items;
    if (!req.session.empty()) {
      sessions_.CollectExclusions(req.session, req.user, req.items,
                                  &exclusions);
      excl = exclusions;
    }
    const uint64_t t2 = MonotonicNowNs();
    RequestTrace trace;
    trace.start_ns = t2;
    std::vector<ItemId> items;
    uint64_t version = 0;
    const Status s = router_->TopNInto(req.user, req.n, excl, &items, &version,
                                       log != nullptr ? &trace : nullptr);
    const uint64_t t3 = MonotonicNowNs();
    const int n = req.n == 0 ? kListLen : req.n;
    std::string reply = s.ok() ? FormatTopNResponse(req.user, n, items)
                               : FormatError(s.message());
    const uint64_t t4 = MonotonicNowNs();
    *unit_ns += static_cast<double>(t4 - t0);
    if (log != nullptr) {
      const uint64_t root = log->Add("request", t0, t4, 0, request);
      log->Add("protocol.parse", t0, t1, root, request);
      if (!req.session.empty()) {
        log->Add("session_overlay.collect", t1, t2, root, request);
      }
      // Stage stamps are offsets from t2; each stage span runs from the
      // previous stamp to its own.
      auto at = [&](TraceStage st) {
        const int64_t off = trace.stage_ns[static_cast<int>(st)];
        return off < 0 ? uint64_t{0} : t2 + static_cast<uint64_t>(off);
      };
      uint64_t prev = t2;
      const struct {
        TraceStage stage;
        const char* name;
      } stages[] = {{TraceStage::kRoute, "shard_router.route"},
                    {TraceStage::kCacheProbe, "result_cache.probe"},
                    {TraceStage::kStoreProbe, "topn_store.probe"}};
      for (const auto& st : stages) {
        const uint64_t end = at(st.stage);
        if (end == 0) continue;
        log->Add(st.name, prev, end, root, request);
        prev = end;
      }
      if (const uint64_t enqueued = at(TraceStage::kEnqueue); enqueued != 0) {
        log->Add("micro_batcher.score", enqueued, t3, root, request);
      }
      log->Add("protocol.format", t3, t4, root, request);
    }
    return reply;
  }

  const bool spans_;
  RatingDataset train_;
  std::unique_ptr<ShardRouter> router_;
  SessionRegistry sessions_;
  ReplayResult result_;
};

}  // namespace ganc::e2e

#endif  // GANC_BENCH_E2E_SERVE_REPLAY_H_
