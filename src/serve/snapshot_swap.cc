#include "serve/snapshot_swap.h"

#include <sys/stat.h>

#include <chrono>
#include <utility>

#include "util/metrics.h"

namespace ganc {

namespace {

// Watcher events always land in the global registry: a watcher belongs
// to the serving process, not to any one snapshot/registry.
struct WatchInstruments {
  Counter* polls;
  Counter* publishes;
  Counter* failures;
};

const WatchInstruments& WatchMetrics() {
  static const WatchInstruments wi{
      MetricsRegistry::Global().GetCounter(
          "serve_watch_polls_total", "Artifact-watcher poll cycles."),
      MetricsRegistry::Global().GetCounter(
          "serve_watch_publishes_total",
          "Snapshot publishes triggered by the artifact watcher."),
      MetricsRegistry::Global().GetCounter(
          "serve_watch_failures_total",
          "Watcher-triggered publishes that failed validation/load."),
  };
  return wi;
}

}  // namespace

ArtifactWatcher::Signature ArtifactWatcher::Stat(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return Signature{};
  Signature sig;
  sig.exists = true;
  sig.inode = static_cast<uint64_t>(st.st_ino);
  sig.size = static_cast<uint64_t>(st.st_size);
  sig.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                 static_cast<int64_t>(st.st_mtim.tv_nsec);
  return sig;
}

ArtifactWatcher::ArtifactWatcher(std::string path, PublishFn publish,
                                 int poll_interval_ms)
    : path_(std::move(path)),
      publish_(std::move(publish)),
      poll_interval_ms_(poll_interval_ms > 0 ? poll_interval_ms : 1000) {
  // Whatever is on disk now is the artifact the service booted from;
  // republishing it would churn versions for nothing.
  published_ = Stat(path_);
  last_seen_ = published_;
}

ArtifactWatcher::~ArtifactWatcher() { Stop(); }

void ArtifactWatcher::Start() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (thread_.joinable()) return;
  stopping_ = false;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(stop_mu_);
    while (!stopping_) {
      lock.unlock();
      CheckNow();
      lock.lock();
      stop_cv_.wait_for(lock, std::chrono::milliseconds(poll_interval_ms_),
                        [this] { return stopping_; });
    }
  });
}

void ArtifactWatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool ArtifactWatcher::CheckNow() {
  std::lock_guard<std::mutex> lock(mu_);
  WatchMetrics().polls->Increment();
  const Signature sig = Stat(path_);
  const Signature prev = last_seen_;
  last_seen_ = sig;
  if (!sig.exists) return false;
  if (sig == published_) return false;  // already serving this state
  if (!(sig == prev)) return false;     // changed since last poll: settle
  if (sig == failed_) return false;     // known-bad until it changes again
  const Status status = publish_(path_);
  if (status.ok()) {
    published_ = sig;
    WatchMetrics().publishes->Increment();
    return true;
  }
  failed_ = sig;
  WatchMetrics().failures->Increment();
  return false;
}

}  // namespace ganc
