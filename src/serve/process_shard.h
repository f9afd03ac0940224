// ProcessShard: a shard backend that lives in a child process.
//
// Spawn forks `argv` plus `--shard=k/N` (ganc_serve passes its own
// binary), makes the child's stdin and stdout pipes, and blocks until
// the child prints its READY line. Every call is then one round trip
// of the newline protocol the child serves (docs/SERVING.md): a request
// goes out as `TOPNV user= n= [exclude=]`, so the reply names the
// snapshot version that computed it; PUBLISH, METRICSNAP and TRACE go
// out as they are. A mutex serializes the round trips to one child;
// different children proceed in parallel. The child holds no session
// state: the frontend expands sessions into exclusions before routing.
//
// A child that exits turns every later call into an IOError that names
// the shard. Stop (and the destructor) closes the child's stdin so it
// drains and exits, escalating to SIGTERM and then SIGKILL.

#ifndef GANC_SERVE_PROCESS_SHARD_H_
#define GANC_SERVE_PROCESS_SHARD_H_

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/service_shard.h"
#include "serve/shard_backend.h"
#include "util/status.h"

namespace ganc {

/// Writes all of `data` to `fd`, riding out short writes. False on any
/// write error (EPIPE from a dead reader included).
bool WriteAll(int fd, std::string_view data);

class ProcessShard final : public ShardBackend {
 public:
  /// Forks `argv` (argv[0] is the program path) with `--shard=k/N`
  /// appended and waits for its READY line. SIGPIPE is ignored from
  /// here on, so a write to a dead child fails instead of killing the
  /// caller.
  static Result<std::unique_ptr<ProcessShard>> Spawn(
      const std::vector<std::string>& argv, ShardSpec spec);

  ~ProcessShard() override;

  Status TopNInto(UserId user, int n, std::span<const ItemId> exclusions,
                  std::vector<ItemId>* out, uint64_t* served_version,
                  RequestTrace* trace) override;
  Status Publish(const std::string& path) override;
  /// Always fails: a child attaches its store from its own --store.
  Status AttachStore(const std::shared_ptr<const TopNStore>& store) override;
  uint64_t version() const override;
  std::string source() const override;
  Status MergeMetricsInto(
      MetricsSnapshot* snap,
      std::vector<const MetricsRegistry*>* merged) override;
  Status AppendTraces(size_t count, std::string* payload) override;

  /// The READY line the child announced itself with.
  const std::string& ready_line() const { return ready_; }

  /// Shuts the child down and reaps it (idempotent).
  void Stop();

 private:
  ProcessShard(ShardSpec spec, pid_t pid, int in_fd, FILE* out);

  /// Sends `line` and reads the one-line reply; the Locked variants
  /// are called under `mu_`.
  Result<std::string> RoundTrip(const std::string& line);
  Result<std::string> RoundTripLocked(const std::string& line);
  Result<std::string> ReadLineLocked();
  /// Records the `version=` and `source=` of a READY or PUBLISH reply.
  void NoteSnapshotLocked(const std::string& reply);
  std::string Name() const { return "shard " + std::to_string(spec_.index); }

  const ShardSpec spec_;
  mutable std::mutex mu_;  ///< guards the pipes and the snapshot identity
  pid_t pid_ = -1;
  int in_fd_ = -1;         ///< child stdin (request lines)
  FILE* out_ = nullptr;    ///< child stdout (reply lines)
  uint64_t version_ = 0;
  std::string source_;
  std::string ready_;
};

}  // namespace ganc

#endif  // GANC_SERVE_PROCESS_SHARD_H_
