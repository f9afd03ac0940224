// ArtifactWatcher: file-driven zero-downtime snapshot publication.
//
// The PUBLISH verb covers operator-driven swaps; the watcher covers the
// deployment loop where a trainer just drops a new artifact at a known
// path. A background thread polls the path's stat signature
// (inode, size, mtime) and calls the publish callback — typically
// ShardRouter::Publish — when the file changes.
//
// Two rules make this safe against the obvious races:
//   * A changed signature is only published after it has been observed
//     identical on two consecutive polls — a writer mid-copy moves
//     size/mtime between polls, so torn files are never loaded. (The
//     artifact container's checksum is the backstop if a writer lands
//     exactly between polls; a failed load is rejected, not served.)
//   * A signature whose publish failed is remembered and not retried
//     until the file changes again — a bad artifact produces one
//     rejection, not a rejection per poll.
//
// The signature present at construction is the baseline: it is assumed
// to be the artifact already serving and is not re-published.

#ifndef GANC_SERVE_SNAPSHOT_SWAP_H_
#define GANC_SERVE_SNAPSHOT_SWAP_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "util/status.h"

namespace ganc {

class ArtifactWatcher {
 public:
  /// Called with the watched path when a stable new signature appears.
  using PublishFn = std::function<Status(const std::string&)>;

  /// Watches `path`, calling `publish` on stable changes. Captures the
  /// current signature as the already-serving baseline. Start() begins
  /// polling every `poll_interval_ms`; without it the watcher is a
  /// passive CheckNow-driven object (how the unit tests drive it).
  ArtifactWatcher(std::string path, PublishFn publish, int poll_interval_ms);

  /// Stops the poll thread (idempotent).
  ~ArtifactWatcher();

  ArtifactWatcher(const ArtifactWatcher&) = delete;
  ArtifactWatcher& operator=(const ArtifactWatcher&) = delete;

  void Start();
  void Stop();

  /// One poll step: stat, compare, maybe publish. Returns true when a
  /// publish succeeded this step. Thread-safe (the poll thread and
  /// tests share it).
  bool CheckNow();

  const std::string& path() const { return path_; }

 private:
  /// Identity of the file's current on-disk state; `exists == false`
  /// compares unequal to every real signature.
  struct Signature {
    bool exists = false;
    uint64_t inode = 0;
    uint64_t size = 0;
    int64_t mtime_ns = 0;

    bool operator==(const Signature&) const = default;
  };

  static Signature Stat(const std::string& path);

  const std::string path_;
  const PublishFn publish_;
  const int poll_interval_ms_;

  std::mutex mu_;
  Signature published_;  ///< signature of the artifact serving now
  Signature last_seen_;  ///< previous poll's signature (stability gate)
  Signature failed_;     ///< last signature whose publish was rejected

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ganc

#endif  // GANC_SERVE_SNAPSHOT_SWAP_H_
