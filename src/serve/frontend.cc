#include "serve/frontend.h"

#include <cstdio>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace ganc {

namespace {

// Joins newline-terminated `payload` under a "OK <what> lines=<N>"
// framing header. The result carries embedded newlines but no trailing
// one — every output path appends exactly one '\n'.
std::string FramedResponse(std::string_view what, const std::string& payload) {
  size_t lines = 0;
  for (const char c : payload) lines += c == '\n';
  std::string out = FormatFramedHeader(what, lines);
  if (!payload.empty()) {
    out.push_back('\n');
    out.append(payload.data(), payload.size() - 1);  // drop trailing '\n'
  }
  return out;
}

std::string FormatStats(const MetricsSnapshot& snap) {
  const uint64_t batches = snap.CounterValue("serve_batches_total");
  const uint64_t batched = snap.CounterValue("serve_batched_requests_total");
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "requests=%llu cache_hits=%llu store_hits=%llu live=%llu batches=%llu "
      "mean_fill=%.2f",
      static_cast<unsigned long long>(
          snap.CounterValue("serve_requests_total")),
      static_cast<unsigned long long>(
          snap.CounterValue("serve_cache_hits_total")),
      static_cast<unsigned long long>(
          snap.CounterValue("serve_store_hits_total")),
      static_cast<unsigned long long>(
          snap.CounterValue("serve_live_scored_total")),
      static_cast<unsigned long long>(batches),
      batches == 0 ? 0.0
                   : static_cast<double>(batched) /
                         static_cast<double>(batches));
  return FormatOk(buf);
}

std::string JoinVersions(const std::vector<uint64_t>& versions) {
  std::string out;
  for (const uint64_t v : versions) {
    if (!out.empty()) out.push_back(',');
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

ServeFrontend::ServeFrontend(ShardRouter& router, FrontendRole role,
                             ShardSpec child_spec)
    : router_(router), role_(role), child_spec_(child_spec) {
  if (role_ == FrontendRole::kShardChild) return;
  MetricsRegistry& r = MetricsRegistry::Global();
  lines_ = r.GetCounter("serve_lines_total",
                        "Request lines received by the frontend.");
  parse_errors_ = r.GetCounter("serve_parse_errors_total",
                               "Request lines rejected by the parser.");
  parse_ns_ = r.GetHistogram("serve_parse_ns",
                             "Protocol parse latency, nanoseconds.");
  line_ns_ = r.GetHistogram(
      "serve_line_ns",
      "Full line handling latency (parse through response formatting), "
      "nanoseconds.");
}

std::string ServeFrontend::HandleLine(std::string_view line, bool* quit) {
  TraceRing& ring = TraceRing::Global();
  std::unique_ptr<RequestTrace> trace =
      ring.Begin(seq_.fetch_add(1, std::memory_order_relaxed));
  const uint64_t start_ns = MonotonicNowNs();
  if (lines_ != nullptr) lines_->Increment();
  Result<ServeRequest> parsed = ParseServeRequest(line);
  const uint64_t parse_end = MonotonicNowNs();
  if (parse_ns_ != nullptr) parse_ns_->Observe(parse_end - start_ns);
  if (trace != nullptr) trace->Stamp(TraceStage::kParse, parse_end);
  std::string response;
  if (parsed.ok()) {
    response = Dispatch(*parsed, trace.get(), quit);
  } else {
    if (parse_errors_ != nullptr) parse_errors_->Increment();
    response = FormatError(parsed.status().message());
  }
  const uint64_t end_ns = MonotonicNowNs();
  if (line_ns_ != nullptr) line_ns_->Observe(end_ns - start_ns);
  if (trace != nullptr) {
    trace->Stamp(TraceStage::kRespond, end_ns);
    ring.Commit(std::move(trace));
  }
  return response;
}

std::string ServeFrontend::Dispatch(const ServeRequest& req,
                                    RequestTrace* trace, bool* quit) {
  switch (req.command) {
    case ServeCommand::kTopN:
    case ServeCommand::kTopNV: {
      std::vector<ItemId> exclusions;
      std::span<const ItemId> excl = req.items;
      if (!req.session.empty()) {
        sessions_.CollectExclusions(req.session, req.user, req.items,
                                    &exclusions);
        excl = exclusions;
      }
      std::vector<ItemId> items;
      uint64_t version = 0;
      if (Status s =
              router_.TopNInto(req.user, req.n, excl, &items, &version, trace);
          !s.ok()) {
        return FormatError(s.message());
      }
      const int n = req.n == 0 ? router_.default_n() : req.n;
      return req.command == ServeCommand::kTopNV
                 ? FormatVersionedTopNResponse(req.user, n, version, items)
                 : FormatTopNResponse(req.user, n, items);
    }
    case ServeCommand::kConsume: {
      for (const ItemId i : req.items) {
        if (i < 0 || i >= router_.num_items()) {
          return FormatError("consumed item id out of range");
        }
      }
      if (req.user < 0 || req.user >= router_.num_users()) {
        return FormatError("user id out of range");
      }
      sessions_.MarkConsumed(req.session, req.user, req.items);
      return FormatOk("consumed=" + std::to_string(req.items.size()));
    }
    case ServeCommand::kPublish: {
      uint64_t max_v = 0;
      if (Status s = router_.Publish(req.path, &max_v); !s.ok()) {
        return FormatError(s.message());
      }
      return FormatOk("version=" + std::to_string(max_v) +
                      (router_.num_shards() > 1
                           ? " shards=" + std::to_string(router_.num_shards())
                           : " source=" + router_.source()));
    }
    case ServeCommand::kVersion:
      if (router_.num_shards() > 1) {
        return FormatOk("versions=" + JoinVersions(router_.versions()));
      }
      return FormatOk("version=" + std::to_string(router_.max_version()) +
                      " source=" + router_.source());
    case ServeCommand::kShards:
      if (role_ == FrontendRole::kShardChild) {
        return FormatOk("shard=" + std::to_string(child_spec_.index) + "/" +
                        std::to_string(child_spec_.num_shards) +
                        " users=" + std::to_string(router_.num_users()) +
                        " version=" + std::to_string(router_.max_version()));
      }
      return FormatOk(
          "shards=" + std::to_string(router_.num_shards()) + " mode=" +
          (role_ == FrontendRole::kMultiProcess ? "multiprocess"
                                                : "inprocess") +
          " users=" + std::to_string(router_.num_users()));
    case ServeCommand::kStats:
    case ServeCommand::kMetrics:
    case ServeCommand::kMetricSnap: {
      Result<MetricsSnapshot> snap = router_.SnapshotMetrics();
      if (!snap.ok()) return FormatError(snap.status().message());
      if (req.command == ServeCommand::kStats) return FormatStats(*snap);
      if (req.command == ServeCommand::kMetrics) {
        return FramedResponse("metrics", snap->RenderExposition());
      }
      return FormatOk("metricsnap " + snap->Serialize());
    }
    case ServeCommand::kTrace: {
      // This process's ring first (in a multi-process router: the
      // frontend's own timelines), then each child's.
      const size_t count = static_cast<size_t>(req.n == 0 ? 16 : req.n);
      std::string payload;
      for (const RequestTrace& t : TraceRing::Global().MostRecent(count)) {
        payload += FormatTraceLine(t);
        payload.push_back('\n');
      }
      if (Status s = router_.AppendTraces(count, &payload); !s.ok()) {
        return FormatError(s.message());
      }
      return FramedResponse("traces", payload);
    }
    case ServeCommand::kPing:
      return FormatOk("pong");
    case ServeCommand::kQuit:
      *quit = true;
      return FormatOk("bye");
  }
  return FormatError("unreachable");
}

}  // namespace ganc
