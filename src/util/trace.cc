#include "util/trace.h"

#include <algorithm>
#include <cstdio>

#include "util/metrics.h"

namespace ganc {

namespace {

// Same mixer the shard router uses for user->shard placement; here it
// decorrelates sequence numbers from the sampling decision so bursts
// don't alias against the period.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kParse:
      return "parse";
    case TraceStage::kRoute:
      return "route";
    case TraceStage::kCacheProbe:
      return "cache_probe";
    case TraceStage::kStoreProbe:
      return "store_probe";
    case TraceStage::kEnqueue:
      return "enqueue";
    case TraceStage::kScore:
      return "score";
    case TraceStage::kRespond:
      return "respond";
  }
  return "unknown";
}

std::string FormatTraceLine(const RequestTrace& trace) {
  std::string out = "seq=" + std::to_string(trace.seq);
  if (trace.user >= 0) out += " user=" + std::to_string(trace.user);
  if (trace.shard >= 0) out += " shard=" + std::to_string(trace.shard);
  if (trace.version > 0) out += " version=" + std::to_string(trace.version);
  out.push_back(' ');
  out += "outcome=";
  out.push_back(trace.outcome);
  int64_t total = -1;
  for (int i = 0; i < kNumTraceStages; ++i) {
    total = std::max(total, trace.stage_ns[i]);
  }
  if (total >= 0) out += " total_ns=" + std::to_string(total);
  for (int i = 0; i < kNumTraceStages; ++i) {
    if (trace.stage_ns[i] < 0) continue;
    out += " ";
    out += TraceStageName(static_cast<TraceStage>(i));
    out.push_back('=');
    out += std::to_string(trace.stage_ns[i]);
  }
  return out;
}

TraceRing::TraceRing(size_t capacity, uint64_t sample_period, uint64_t seed)
    : capacity_(capacity == 0 ? 1 : capacity),
      sample_period_(sample_period),
      seed_(seed) {
  ring_.resize(capacity_);
}

TraceRing& TraceRing::Global() {
  static TraceRing* ring = new TraceRing(256, 16, 0x6a4c431d2f10ull);
  return *ring;
}

bool TraceRing::ShouldSample(uint64_t seq) const {
  if (sample_period_ == 0) return false;
  if (sample_period_ == 1) return true;
  return SplitMix64(seed_ ^ seq) % sample_period_ == 0;
}

std::unique_ptr<RequestTrace> TraceRing::Begin(uint64_t seq) {
  if (!ShouldSample(seq)) return nullptr;
  auto trace = std::make_unique<RequestTrace>();
  trace->seq = seq;
  trace->start_ns = MonotonicNowNs();
  return trace;
}

void TraceRing::Commit(std::unique_ptr<RequestTrace> trace) {
  if (trace == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = *trace;
  next_ = (next_ + 1) % capacity_;
  ++committed_;
}

std::vector<RequestTrace> TraceRing::MostRecent(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t stored = committed_ < capacity_
                            ? static_cast<size_t>(committed_)
                            : capacity_;
  const size_t count = std::min(n, stored);
  std::vector<RequestTrace> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // next_ points at the oldest slot once the ring has wrapped; walk
    // backwards from the most recently written slot.
    const size_t slot = (next_ + capacity_ - 1 - i) % capacity_;
    out.push_back(ring_[slot]);
  }
  return out;
}

}  // namespace ganc
