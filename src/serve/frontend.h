// ServeFrontend: the one request dispatcher.
//
// Turns a protocol line (serve/protocol.h, grammar in docs/SERVING.md)
// into the reply bytes for all twelve verbs: it parses, expands
// `session=` into explicit exclusions, routes through a ShardRouter and
// formats the reply. `ganc_serve` calls it for stdin and every TCP
// connection in every topology, and `ganc_cli replay` calls it for each
// transcript line, so every surface answers a line the same way.
//
// Sessions live here, in front of the router, in every topology: a
// CONSUME never leaves the frontend, and a session TOPN reaches the
// owning shard as a plain request with the consumed items as sorted
// exclusions. STATS is rendered from the router's merged metrics
// snapshot, the same one METRICS exposes.
//
// Per line the frontend counts `serve_lines_total`,
// `serve_parse_errors_total`, `serve_parse_ns` and `serve_line_ns` and
// samples a trace into TraceRing::Global(). A `--shard=k/N` child does
// not face clients, so it leaves the line series to the router that
// does; each line is then counted once in every topology.

#ifndef GANC_SERVE_FRONTEND_H_
#define GANC_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/protocol.h"
#include "serve/session_overlay.h"
#include "serve/shard_router.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ganc {

/// The topology a frontend serves in; SHARDS reports it.
enum class FrontendRole {
  kInProcess,     ///< router over shards in this process
  kMultiProcess,  ///< router over `--shard=k/N` child processes
  kShardChild,    ///< a `--shard=k/N` child behind a multi-process router
};

class ServeFrontend {
 public:
  /// `router` must outlive the frontend. `child_spec` is the partition
  /// a kShardChild serves (ignored otherwise).
  explicit ServeFrontend(ShardRouter& router,
                         FrontendRole role = FrontendRole::kInProcess,
                         ShardSpec child_spec = {});

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  /// Answers one request line (without its newline). The reply has no
  /// trailing newline; the framed METRICS and TRACE replies carry
  /// embedded ones. Sets `*quit` on QUIT. Thread-safe.
  std::string HandleLine(std::string_view line, bool* quit);

  size_t num_sessions() const { return sessions_.num_sessions(); }

 private:
  std::string Dispatch(const ServeRequest& req, RequestTrace* trace,
                       bool* quit);

  ShardRouter& router_;
  const FrontendRole role_;
  const ShardSpec child_spec_;
  SessionRegistry sessions_;
  /// One sequence number per line across every input, so trace
  /// sampling is deterministic in arrival order.
  std::atomic<uint64_t> seq_{0};
  // Line instruments; null in a shard child.
  Counter* lines_ = nullptr;
  Counter* parse_errors_ = nullptr;
  LatencyHistogram* parse_ns_ = nullptr;
  LatencyHistogram* line_ns_ = nullptr;
};

}  // namespace ganc

#endif  // GANC_SERVE_FRONTEND_H_
